//go:build !race

package livebind

// raceEnabled reports whether the race detector is compiled in. The
// allocation test skips under it: the detector drops a random share of
// sync.Pool puts, so pooled slots are reallocated on purpose.
const raceEnabled = false
