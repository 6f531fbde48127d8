//go:build race

package wire

// raceEnabled gates allocation pins: the race detector changes what
// allocates.
const raceEnabled = true
