//go:build race

package simprobe_test

const raceEnabled = true
