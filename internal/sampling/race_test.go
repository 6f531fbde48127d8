//go:build race

package sampling

// raceEnabled gates allocation pins: the race detector changes what
// allocates.
const raceEnabled = true
