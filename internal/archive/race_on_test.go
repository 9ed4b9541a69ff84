//go:build race

package archive

const raceEnabled = true
