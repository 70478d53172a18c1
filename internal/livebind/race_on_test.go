//go:build race

package livebind

// raceEnabled: see race_off_test.go.
const raceEnabled = true
