//go:build race

package main

// raceEnabled reports whether the race detector is compiled in; TestSmoke
// skips under it.
const raceEnabled = true
