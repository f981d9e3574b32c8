package cache

// IdleQueued returns the LBAs an LRU cleaner (LeavO, WB) holds in its
// idle queue, in issue order.
func (b *base) IdleQueued() []int64 { return b.idle.Queued() }
