package metalog

import "kddcache/internal/sim"

// This file implements the sharded data plane's batched append path.
//
// Lanes of the shard plane share one metadata log (one NVRAM buffer, one
// circular partition, one tail). In batch mode an operation's entries are
// inserted into the NVRAM buffer immediately — insertion is the
// durability point, exactly as in Put, so the RPO-zero contract is
// untouched — but the page flushes that Put would perform inline are
// deferred to one FlushBatch call at the end of the plane's batch: one
// fsync-equivalent barrier per batch instead of one per entry. The pages
// FlushBatch commits are the pages Put and Flush commit (Log.commitPage),
// so the two paths mix freely in one log and replay in commit order.

// PutBuffered records a mapping entry in the NVRAM metadata buffer
// WITHOUT flushing any full page to flash. The insert is the durability
// point (atomic-in-NVRAM, same as Put); the deferred page commits are
// issued by the next FlushBatch.
func (l *Log) PutBuffered(e Entry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bufInsert(e)
}

// FlushBatch commits every full page's worth of buffered entries to the
// log tail in one barrier. Partial pages stay in NVRAM (they are durable
// there); Flush drains them. Returns the virtual completion time of the
// flash writes, t if none were needed.
func (l *Log) FlushBatch(t sim.Time) (sim.Time, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.commitFull(t, bugBatchAckEarly)
}
