//go:build !race

package udprobe

const raceEnabled = false
