//go:build kddbug

package check

import "testing"

// TestMutationCaughtShardBatch proves the sharded sweep can actually
// fail. The kddbug build flips one ordering edge in the metadata log's
// batched flush path: a tagged page's entries leave the NVRAM buffer
// BEFORE the page write is acked. A crash on that write ordinal then
// destroys the only durable copy of those entries — the page is torn or
// absent AND the NVRAM no longer holds them — so recovery forgets acked
// writes whose durability the batch barrier was supposed to carry.
// Exactly the bug class the interleaved-batches crash sweep exists to
// catch; if this test passes without violations, the sweep has no teeth.
func TestMutationCaughtShardBatch(t *testing.T) {
	rep := sweepOK(t, RunShard, Options{Seeds: 2, Ops: 160, Footprint: 48})
	v := rep.Violations()
	if len(v) == 0 {
		t.Fatal("kddbug mutation produced zero violations across every crash point; " +
			"the shard checker cannot detect the batch-acked-before-durable ordering bug")
	}
	t.Logf("shard checker caught the mutation (%d violations); first: %s", len(v), v[0])
}
