package cache

// IdleQueued returns the LBAs an LRU cleaner (LeavO, WB) holds in its
// idle queue, in issue order.
func (p *lru) IdleQueued() []int64 { return p.cleaner.Queued() }
