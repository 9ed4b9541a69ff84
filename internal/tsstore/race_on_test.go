//go:build race

package tsstore_test

const raceEnabled = true
