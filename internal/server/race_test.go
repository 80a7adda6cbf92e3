//go:build race

package server

// raceEnabled marks -race builds, where sync.Pool drops a random quarter of
// what is put back, so allocation bounds that rely on recycling do not hold.
func init() { raceEnabled = true }
