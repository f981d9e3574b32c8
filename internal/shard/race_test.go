//go:build race

package shard_test

// Under the race detector sync.Pool drops a quarter of all Puts at
// random, so the lanes' pooled pages miss and allocation budgets cannot
// hold.
func init() { poolDropsPuts = true }
