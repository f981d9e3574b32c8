//go:build race

package delta

// Under the race detector sync.Pool drops a quarter of all Puts at
// random, so allocation budgets that rely on recycled buffers cannot
// hold.
func init() { poolDropsPuts = true }
