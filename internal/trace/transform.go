package trace

// Transformations for adapting real traces (which may address terabytes
// over many hours) to a simulated array: address remapping and request
// clipping.

// Remap folds all LBAs into [0, maxPages) with a stride-preserving
// modulo: page p maps to p mod maxPages, keeping sequential runs
// sequential. Multi-page requests that would wrap are split.
func (tr *Trace) Remap(maxPages int64) *Trace {
	if maxPages <= 0 {
		panic("trace: Remap needs a positive page count")
	}
	out := &Trace{Name: tr.Name}
	for _, r := range tr.Requests {
		lba := r.LBA % maxPages
		remaining := int64(r.Pages)
		for remaining > 0 {
			run := remaining
			if lba+run > maxPages {
				run = maxPages - lba
			}
			out.Requests = append(out.Requests, Request{
				Time: r.Time, Op: r.Op, LBA: lba, Pages: int32(run), Tenant: r.Tenant,
			})
			remaining -= run
			lba = 0
		}
	}
	return out
}

// Clip keeps only the first n requests.
func (tr *Trace) Clip(n int) *Trace {
	if n > len(tr.Requests) {
		n = len(tr.Requests)
	}
	return &Trace{Name: tr.Name, Requests: tr.Requests[:n]}
}
