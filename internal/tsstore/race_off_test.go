//go:build !race

package tsstore_test

const raceEnabled = false
