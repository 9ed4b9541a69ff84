//go:build !race

package pathload_test

const raceEnabled = false
