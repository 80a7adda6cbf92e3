//go:build race

package engine_test

// raceEnabled marks -race builds, where the instrumented engine runs too
// slowly for wall-clock bounds.
func init() { raceEnabled = true }
