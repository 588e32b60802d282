//go:build race

package wire

// raceEnabled reports a -race build, whose runtime allocates on its own and
// whose sync.Pool drops items at random, so allocation counts mean nothing.
const raceEnabled = true
