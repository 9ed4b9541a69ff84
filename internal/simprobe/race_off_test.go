//go:build !race

package simprobe_test

const raceEnabled = false
