//go:build race

package core

// raceEnabled gates allocation pins: the race detector changes what
// allocates.
const raceEnabled = true
