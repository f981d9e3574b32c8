//go:build race

package core_test

// Under the race detector sync.Pool drops a quarter of all Puts at
// random, so byte budgets that rely on pooled pages cannot hold.
func init() { poolDropsPuts = true }
