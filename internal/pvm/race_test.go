//go:build race

package pvm

// The race detector changes allocation counts, so the allocation
// ceilings skip themselves under it.
func init() { raceEnabled = true }
