package obs

// Obs bundles one run's observability: a tracer recording completed
// trees into a binary span ring. JSONL trace bytes and the
// phase-attribution profile are both derived from the ring at export
// time, so the per-operation recording cost is a handful of struct
// copies instead of text encoding plus an interval sweep. The harness
// attaches one Obs per experiment job so trace bytes are independent of
// worker-pool width.
type Obs struct {
	Tracer *Tracer

	ring   *Ring
	prof   *Profile
	profAt int // ring length the cached profile was built from
}

// New returns an Obs capturing spans into a binary ring: its tracer
// writes each span straight into the ring's storage. New is the only
// way to get a tracer. The ring's chunk storage is recycled from a pool;
// call Release when the Obs is done to return it (a dropped Obs is
// merely garbage, never incorrect).
func New() *Obs {
	o := &Obs{ring: newPooledRing()}
	o.Tracer = &Tracer{ring: o.ring}
	return o
}

// Release returns the ring's storage to the recycling pool. Previously
// exported artifacts stay valid, but the Obs must not be used afterwards
// and neither may its Tracer: anything still holding the *Tracer (an
// engine, an array) would write into a ring another Obs now owns, so
// release only once every holder is done with it.
func (o *Obs) Release() {
	if o.ring == nil {
		return
	}
	o.ring.release()
	o.ring = nil
	o.Tracer = nil
	o.prof = nil
}

// Ring exposes the underlying span ring (read-only use).
func (o *Obs) Ring() *Ring { return o.ring }

// TraceJSONL renders the JSONL trace of every tree completed so far.
func (o *Obs) TraceJSONL() []byte { return o.ring.AppendJSONL(nil) }

// Profile returns the phase-attribution profile over every tree
// recorded so far, built lazily from the ring and cached until more
// spans arrive.
func (o *Obs) Profile() *Profile {
	if o.prof == nil || o.profAt != o.ring.Spans() {
		p := NewProfile()
		o.ring.Trees(p.Tree)
		o.prof, o.profAt = p, o.ring.Spans()
	}
	return o.prof
}

// Publish writes the profile and tracer accounting into reg.
func (o *Obs) Publish(reg *Registry) {
	o.Profile().Publish(reg)
	reg.SetCounter("obs_spans_total", "Spans recorded by the tracer.", int64(o.Tracer.Spans()))
}
