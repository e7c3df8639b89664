//go:build race

package scenario

// raceEnabled reports a -race build, where sync.Pool drops released
// items at random, so a test cannot count on reuse.
const raceEnabled = true
