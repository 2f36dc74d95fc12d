//go:build !race

package core

// raceEnabled lets the heaviest tests skip under the race detector.
const raceEnabled = false
