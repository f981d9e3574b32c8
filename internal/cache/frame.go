// Package cache provides the set-associative SSD-cache frame shared by
// every policy, and the three baseline policies the paper compares KDD
// against: write-through (WT), write-around (WA), and LeavO (Lee et al.,
// SAC'15 — old+new versions with delayed parity).
//
// The cache space is divided into sets of a fixed number of page slots;
// data pages are mapped to sets by hashing their parity stripe so pages
// of one stripe land together and can be reclaimed together (§III-B).
// Replacement is LRU over evictable pages within the set.
package cache

import (
	"fmt"
	"math/bits"

	"kddcache/internal/bitset"
	"kddcache/internal/blockdev"
)

// State is a cache slot state. Free/Clean/Old/Delta are the paper's page
// states (§III-B); New is used by LeavO for the redundant new version of
// an updated page.
type State uint8

// Slot states.
const (
	Free State = iota
	Clean
	Old
	Delta
	New
)

func (s State) String() string {
	switch s {
	case Free:
		return "free"
	case Clean:
		return "clean"
	case Old:
		return "old"
	case Delta:
		return "delta"
	case New:
		return "new"
	default:
		return fmt.Sprintf("state(%d)", uint8(s))
	}
}

// numStates is the number of slot states.
const numStates = 5

// listed reports whether slots in state s sit on a recency list: the data
// states, whose LastUse orders eviction and cleaning. Free and Delta slots
// are picked by position and load, never by age, and stay unlinked.
func listed(s State) bool { return s == Clean || s == Old || s == New }

// NoSlot marks the absence of a slot index.
const NoSlot = int32(-1)

// Slot is one cache page frame. State and LastUse key the frame's recency
// lists: outside Frame they are read-only, changed through Touch, Insert,
// Transition, MarkDelta and Release.
type Slot struct {
	State State
	// Recency-list neighbours (older, newer) among the slots of the same
	// set and state; NoSlot at the ends and while the state is unlisted.
	prev, next int32
	RaidLBA    int64 // storage page cached here (valid for Clean/Old/New)
	LastUse    int64 // LRU tick
}

// binding is one cell of the frame's LBA lookup table: storage page
// hi<<32|lo is cached in slot ref-1, or the cell is empty (ref == 0, so a
// fresh table needs no initialisation). Three 4-byte fields keep a cell at
// 12 bytes — key and value in one cache line for all but the cells that
// straddle two.
type binding struct {
	lo, hi uint32
	ref    int32
}

func (b binding) lba() int64 { return int64(b.hi)<<32 | int64(b.lo) }

// Frame is the set-associative slot array with an LBA lookup index.
// It tracks slot states only; what the bytes mean is up to the policy.
type Frame struct {
	ways        int
	nsets       int
	dataSets    int // sets available to data pages (== nsets unless fixed-partition)
	stripePages int64
	slots       []Slot
	tick        int64

	// lookup maps RaidLBA -> slot holding its current data: open
	// addressing with linear probing over two cells per slot. A bound
	// slot carries the LBA it is bound under, so bindings never outnumber
	// slots, the table never passes half full and never grows — 24 bytes
	// per cache page whatever the array's LBA space. Deletion shifts the
	// rest of the probe run back (no tombstones).
	lookup []binding
	bound  int // occupied cells

	// free mirrors State == Free, one bit per slot, so AllocFree finds a
	// set's lowest free slot a word at a time.
	free bitset.Set

	// Per-state population counts, for thresholds and zone stats.
	counts [numStates]int64
	// Per-set Delta-page counts, for KDD's least-loaded DEZ allocation.
	deltaPerSet []int32
	// Per-set Free-slot counts, so allocation scans can skip full sets.
	freePerSet []int32
	// dezTree is a tournament tree over the sets for LeastDeltaSet: leaf
	// dezLeaves+s holds s while s may take a DEZ page (a Free slot, and
	// outside the fixed partition's data sets), else -1; each inner node
	// holds the better of its children — fewer Delta pages, then the
	// lower index — so the root is the answer. setState lists a set in
	// dezStale (once, per dezMark) when its eligibility or its Delta
	// count changes, and LeastDeltaSet refreshes the listed paths first:
	// an eviction and the allocation that refills the set cost one look.
	dezTree   []int32
	dezLeaves int
	dezStale  []int32
	dezMark   []bool

	// Recency lists: one per set per listed state, at index
	// set*numStates+state, each ascending in (LastUse, slot index) so the
	// head is that set's LRU slot of the state. Kept incrementally by
	// Touch and setState; EvictLRU and OldestSlots only read the heads.
	heads, tails []int32

	// OldestSlots scratch, reused across calls: the result and the merge
	// heap of per-set list cursors, allocated at first use at the largest
	// batch asked for and at one cursor per set.
	oldest []int32
	merge  []int32
}

// NewFrame builds a frame of totalPages slots grouped into sets of `ways`
// pages. stripePages controls set mapping: LBAs of one parity stripe map
// to one set. totalPages is rounded down to a multiple of ways.
func NewFrame(totalPages int64, ways int, stripePages int64) *Frame {
	if ways < 1 || totalPages < int64(ways) || stripePages < 1 {
		panic(fmt.Sprintf("cache: bad frame geometry pages=%d ways=%d stripe=%d",
			totalPages, ways, stripePages))
	}
	nsets := int(totalPages / int64(ways))
	f := &Frame{
		ways:        ways,
		nsets:       nsets,
		dataSets:    nsets,
		stripePages: stripePages,
		slots:       make([]Slot, nsets*ways),
		lookup:      make([]binding, 2*nsets*ways),
		free:        bitset.New(int64(nsets * ways)),
		deltaPerSet: make([]int32, nsets),
		freePerSet:  make([]int32, nsets),
		heads:       make([]int32, nsets*numStates),
		tails:       make([]int32, nsets*numStates),
	}
	f.counts[Free] = int64(len(f.slots))
	for i := range f.freePerSet {
		f.freePerSet[i] = int32(ways)
	}
	f.free.Fill()
	for i := range f.slots {
		f.slots[i].prev, f.slots[i].next = NoSlot, NoSlot
	}
	for i := range f.heads {
		f.heads[i], f.tails[i] = NoSlot, NoSlot
	}
	f.dezLeaves = 1
	for f.dezLeaves < nsets {
		f.dezLeaves *= 2
	}
	f.dezTree = make([]int32, 2*f.dezLeaves)
	f.dezStale, f.dezMark = make([]int32, 0, nsets), make([]bool, nsets)
	f.buildDezTree()
	return f
}

// buildDezTree fills every node of the LeastDeltaSet tree.
func (f *Frame) buildDezTree() {
	for s := 0; s < f.dezLeaves; s++ {
		f.dezTree[f.dezLeaves+s] = f.dezLeaf(s)
	}
	for i := f.dezLeaves - 1; i >= 1; i-- {
		f.dezTree[i] = f.dezBetter(f.dezTree[2*i], f.dezTree[2*i+1])
	}
}

// dezLeaf is set s's leaf value: s if it may take a DEZ page, else -1.
func (f *Frame) dezLeaf(s int) int32 {
	if s >= f.nsets || f.freePerSet[s] == 0 || (f.dataSets < f.nsets && s < f.dataSets) {
		return -1
	}
	return int32(s)
}

// dezBetter picks the set with fewer Delta pages, the lower index on a
// tie (a is always the lower-indexed subtree's pick).
func (f *Frame) dezBetter(a, b int32) int32 {
	if a < 0 || (b >= 0 && f.deltaPerSet[b] < f.deltaPerSet[a]) {
		return b
	}
	return a
}

// fixDez refreshes set s's leaf and its path to the root. The walk stops
// at the first node whose pick neither changes nor is s: s's key does not
// reach the nodes above through it (another stale set's path is walked in
// its own turn).
func (f *Frame) fixDez(s int) {
	i := f.dezLeaves + s
	v := f.dezLeaf(s)
	for {
		if f.dezTree[i] == v && v != int32(s) {
			return
		}
		f.dezTree[i] = v
		if i /= 2; i < 1 {
			return
		}
		v = f.dezBetter(f.dezTree[2*i], f.dezTree[2*i+1])
	}
}

// Pages returns the usable cache capacity in pages.
func (f *Frame) Pages() int64 { return int64(len(f.slots)) }

// Sets returns the number of cache sets.
func (f *Frame) Sets() int { return f.nsets }

// Ways returns the set associativity.
func (f *Frame) Ways() int { return f.ways }

// Count returns the number of slots in the given state.
func (f *Frame) Count(s State) int64 { return f.counts[s] }

// SetOf maps a storage LBA to its cache set via Fibonacci hashing of the
// parity stripe number. Only the first DataSets sets receive data pages.
func (f *Frame) SetOf(lba int64) int {
	stripe := uint64(lba / f.stripePages)
	h := stripe * 0x9E3779B97F4A7C15
	return int(h % uint64(f.dataSets))
}

// SetDataSets restricts data pages to the first n sets, reserving the
// rest for delta pages — the fixed-partition ablation of §III-B. The
// default (n == Sets()) is the paper's dynamic mixing.
func (f *Frame) SetDataSets(n int) {
	if n < 1 || n > f.nsets {
		panic("cache: bad data-set count")
	}
	f.dataSets = n
	f.buildDezTree()
}

// DataSets returns the number of sets data pages may occupy.
func (f *Frame) DataSets() int { return f.dataSets }

// SetRange returns the slot index range [lo, hi) of a set.
func (f *Frame) SetRange(set int) (int32, int32) {
	lo := int32(set * f.ways)
	return lo, lo + int32(f.ways)
}

// Lookup returns the slot currently holding the storage page, or NoSlot.
func (f *Frame) Lookup(lba int64) int32 {
	if i, ok := f.probe(lba); ok {
		return f.lookup[i].ref - 1
	}
	return NoSlot
}

// home returns the cell lba's probe run starts at: Fibonacci hashing, so
// the consecutive LBAs of a stripe scatter instead of clustering, reduced
// to the table size by a multiply instead of a division.
func (f *Frame) home(lba int64) int {
	h, _ := bits.Mul64(uint64(lba)*0x9E3779B97F4A7C15, uint64(len(f.lookup)))
	return int(h)
}

// probe walks lba's probe run and returns the index of its cell, or, if
// it has none, of the empty cell that ends the run — where a binding for
// it would go. The table is at most half full, so every run ends.
func (f *Frame) probe(lba int64) (i int, found bool) {
	lo, hi := uint32(lba), uint32(lba>>32)
	for i = f.home(lba); ; {
		c := &f.lookup[i]
		if c.ref == 0 {
			return i, false
		}
		if c.lo == lo && c.hi == hi {
			return i, true
		}
		if i++; i == len(f.lookup) {
			i = 0
		}
	}
}

// bind points lba's lookup entry at slot, adding the entry if there is
// none.
func (f *Frame) bind(lba int64, slot int32) {
	i, found := f.probe(lba)
	if !found {
		if f.bound == len(f.slots) {
			panic("cache: more lookup bindings than slots")
		}
		f.bound++
	}
	f.lookup[i] = binding{lo: uint32(lba), hi: uint32(lba >> 32), ref: slot + 1}
}

// unbind removes lba's lookup entry if it points at slot. Every later
// cell of the probe run that the gap would cut off from its home moves
// back into it, so lookups never need tombstones.
func (f *Frame) unbind(lba int64, slot int32) {
	gap, found := f.probe(lba)
	if !found || f.lookup[gap].ref != slot+1 {
		return
	}
	n := len(f.lookup)
	for j := gap; ; {
		if j++; j == n {
			j = 0
		}
		next := f.lookup[j]
		if next.ref == 0 {
			break
		}
		// next stays put if its home lies cyclically within (gap, j].
		if h := f.home(next.lba()); (gap < j && gap < h && h <= j) || (gap > j && (gap < h || h <= j)) {
			continue
		}
		f.lookup[gap] = next
		gap = j
	}
	f.lookup[gap].ref = 0
	f.bound--
}

// Slot returns a pointer to slot i for inspection; see Slot for which
// fields a caller must not write.
func (f *Frame) Slot(i int32) *Slot { return &f.slots[i] }

// Touch refreshes LRU recency for slot i.
func (f *Frame) Touch(i int32) {
	f.tick++
	sl := &f.slots[i]
	sl.LastUse = f.tick
	if listed(sl.State) && sl.next != NoSlot { // not already its list's newest
		l := f.list(i)
		f.unlink(i, l)
		f.link(i, l)
	}
}

// older orders slots by recency: least recently used first, ties (only
// slots never stamped by Touch or Insert can tie) by lower slot index.
func (f *Frame) older(a, b int32) bool {
	ua, ub := f.slots[a].LastUse, f.slots[b].LastUse
	return ua < ub || (ua == ub && a < b)
}

// list returns the recency-list index of slot i's set and current state.
func (f *Frame) list(i int32) int {
	return int(i)/f.ways*numStates + int(f.slots[i].State)
}

// unlink takes slot i off its recency list l.
func (f *Frame) unlink(i int32, l int) {
	sl := &f.slots[i]
	if sl.prev == NoSlot {
		f.heads[l] = sl.next
	} else {
		f.slots[sl.prev].next = sl.next
	}
	if sl.next == NoSlot {
		f.tails[l] = sl.prev
	} else {
		f.slots[sl.next].prev = sl.prev
	}
	sl.prev, sl.next = NoSlot, NoSlot
}

// link puts slot i on recency list l — that of its set and (listed)
// state — at its place in recency order, walking back from the newest
// end: the freshly stamped slot of Touch and Insert stays at the tail, and
// only a Transition of a slot not stamped just before (WB's flush, LeavO,
// scheme-1 reclaim, Restore) walks, at most ways steps.
func (f *Frame) link(i int32, l int) {
	t := f.tails[l]
	for t != NoSlot && f.older(i, t) {
		t = f.slots[t].prev
	}
	// Insert right after t (NoSlot: at the head).
	sl := &f.slots[i]
	sl.prev = t
	if t == NoSlot {
		sl.next = f.heads[l]
		f.heads[l] = i
	} else {
		sl.next = f.slots[t].next
		f.slots[t].next = i
	}
	if sl.next == NoSlot {
		f.tails[l] = i
	} else {
		f.slots[sl.next].prev = i
	}
}

// setState moves slot i to state s, maintaining counts and recency lists.
func (f *Frame) setState(i int32, s State) {
	old := f.slots[i].State
	if old == s {
		return
	}
	set := int(i) / f.ways
	if listed(old) {
		f.unlink(i, set*numStates+int(old))
	}
	f.counts[old]--
	f.counts[s]++
	if old == Delta {
		f.deltaPerSet[set]--
	}
	if s == Delta {
		f.deltaPerSet[set]++
	}
	if old == Free {
		f.freePerSet[set]--
		f.free.Remove(int64(i))
	}
	if s == Free {
		f.freePerSet[set]++
		f.free.Add(int64(i))
	}
	// A set's LeastDeltaSet key moves when it gains its first or loses
	// its last Free slot, or when its Delta count changes while it has one.
	if free := f.freePerSet[set]; ((old == Free && free == 0) || (s == Free && free == 1) ||
		((old == Delta || s == Delta) && free > 0)) && !f.dezMark[set] {
		f.dezMark[set] = true
		f.dezStale = append(f.dezStale, int32(set))
	}
	f.slots[i].State = s
	if listed(s) {
		f.link(i, set*numStates+int(s))
	}
}

// Insert binds storage page lba to slot i with the given state and
// freshens its recency. Any previous binding of the slot must have been
// released.
func (f *Frame) Insert(lba int64, i int32, s State) {
	if s == Free || s == Delta {
		panic("cache: Insert with non-data state")
	}
	f.slots[i].RaidLBA = lba
	f.bind(lba, i)
	if f.slots[i].State == s {
		f.Touch(i)
		return
	}
	// Stamp before the state change so setState links at the tail at once.
	f.tick++
	f.slots[i].LastUse = f.tick
	f.setState(i, s)
}

// Transition changes the state of slot i (e.g. Clean -> Old on a write
// hit), keeping the lookup intact.
func (f *Frame) Transition(i int32, s State) { f.setState(i, s) }

// MarkDelta claims slot i as a DEZ page (no lookup binding).
func (f *Frame) MarkDelta(i int32) {
	f.slots[i].RaidLBA = -1
	f.setState(i, Delta)
}

// Release frees slot i. If drop is true the lookup binding for its
// storage page is removed too (set drop=false when the lookup was already
// rebound elsewhere).
func (f *Frame) Release(i int32, drop bool) {
	if drop && f.slots[i].State != Free && f.slots[i].State != Delta {
		f.unbind(f.slots[i].RaidLBA, i)
	}
	f.slots[i].RaidLBA = -1
	f.setState(i, Free)
}

// AllocFree returns the lowest-indexed Free slot in the set, or NoSlot.
func (f *Frame) AllocFree(set int) int32 {
	if f.freePerSet[set] == 0 {
		return NoSlot
	}
	lo, hi := f.SetRange(set)
	return int32(f.free.FirstIn(int64(lo), int64(hi)))
}

// EvictLRU returns the least-recently-used slot in the set whose state is
// in evictable (data states only), or NoSlot. The caller releases it.
func (f *Frame) EvictLRU(set int, evictable ...State) int32 {
	best := NoSlot
	for _, e := range evictable {
		if !listed(e) {
			panic("cache: EvictLRU over a non-data state")
		}
		if h := f.heads[set*numStates+int(e)]; h != NoSlot && (best == NoSlot || f.older(h, best)) {
			best = h
		}
	}
	return best
}

// LeastDeltaSet returns the set with the fewest Delta pages that still
// has a Free slot, the lowest index on a tie, or -1 ("KDD always chooses a
// free page from the cache set which has the least number of DEZ pages",
// §III-B). Under the fixed partition only the reserved sets qualify. The
// answer is kept in dezTree: the query refreshes the paths of the sets
// whose keys moved since the last one, O(log sets) each.
func (f *Frame) LeastDeltaSet() int {
	for _, s := range f.dezStale {
		f.dezMark[s] = false
		f.fixDez(int(s))
	}
	f.dezStale = f.dezStale[:0]
	return int(f.dezTree[1])
}

// leastDeltaScan is LeastDeltaSet's definition as a scan of the sets, the
// reference CheckInvariants holds the tree to.
func (f *Frame) leastDeltaScan() int {
	start := 0
	if f.dataSets < f.nsets {
		start = f.dataSets // fixed partition: deltas only in reserved sets
	}
	best := -1
	for s := start; s < f.nsets; s++ {
		if f.freePerSet[s] > 0 && (best == -1 || f.deltaPerSet[s] < f.deltaPerSet[best]) {
			best = s
		}
	}
	return best
}

// OldestSlots returns up to n slot indices in the given data state across
// the whole cache, least recently used first (the cleaner's victim list):
// a k-way merge of the per-set recency lists through a min-heap of list
// cursors, O(sets + n log sets). The result is scratch owned by the frame,
// valid until the next OldestSlots call; the frame may be modified while
// it is in use.
func (f *Frame) OldestSlots(state State, n int) []int32 {
	if !listed(state) {
		panic("cache: OldestSlots over a non-data state")
	}
	h := f.merge[:0]
	if cap(h) < f.nsets {
		h = make([]int32, 0, f.nsets)
	}
	for set := 0; set < f.nsets; set++ {
		if c := f.heads[set*numStates+int(state)]; c != NoSlot {
			h = append(h, c)
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		f.siftDown(h, i)
	}
	out := f.oldest[:0]
	if cap(out) < n {
		out = make([]int32, 0, n)
	}
	for len(h) > 0 && len(out) < n {
		c := h[0]
		out = append(out, c)
		if nx := f.slots[c].next; nx != NoSlot {
			h[0] = nx
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		f.siftDown(h, 0)
	}
	f.merge, f.oldest = h[:0], out
	return out
}

// siftDown restores the min-heap order (by older) of h below position i.
func (f *Frame) siftDown(h []int32, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && f.older(h[c+1], h[c]) {
			c++
		}
		if !f.older(h[c], h[i]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// CheckInvariants validates internal consistency (used by tests and the
// property suite): counts match slot states, lookup is a bijection onto
// live data slots with every cell where probing finds it, delta counts and
// free bits match, and every recency list holds exactly its set's slots of
// its state in recency order.
func (f *Frame) CheckInvariants() error {
	var counts [numStates]int64
	deltas := make([]int32, f.nsets)
	frees := make([]int32, f.nsets)
	for i := range f.slots {
		st := f.slots[i].State
		counts[st]++
		if st == Delta {
			deltas[i/f.ways]++
		}
		if st == Free {
			frees[i/f.ways]++
		}
	}
	for s := range frees {
		if frees[s] != f.freePerSet[s] {
			return fmt.Errorf("cache: set %d free count %d, cached %d", s, frees[s], f.freePerSet[s])
		}
	}
	for s := State(0); s < numStates; s++ {
		if counts[s] != f.counts[s] {
			return fmt.Errorf("cache: state %v count %d, cached %d", s, counts[s], f.counts[s])
		}
	}
	for s := range deltas {
		if deltas[s] != f.deltaPerSet[s] {
			return fmt.Errorf("cache: set %d delta count %d, cached %d", s, deltas[s], f.deltaPerSet[s])
		}
	}
	if got, want := f.LeastDeltaSet(), f.leastDeltaScan(); got != want {
		return fmt.Errorf("cache: LeastDeltaSet %d, a scan of the sets finds %d", got, want)
	}
	bound := 0
	for _, c := range f.lookup {
		if c.ref == 0 {
			continue
		}
		bound++
		lba, i := c.lba(), c.ref-1
		if got := f.Lookup(lba); got != i {
			return fmt.Errorf("cache: lookup cell %d -> slot %d is not what probing finds (%d)", lba, i, got)
		}
		st := f.slots[i].State
		if st == Free || st == Delta {
			return fmt.Errorf("cache: lookup %d points at %v slot", lba, st)
		}
		if f.slots[i].RaidLBA != lba {
			return fmt.Errorf("cache: lookup %d points at slot holding %d", lba, f.slots[i].RaidLBA)
		}
		if f.SetOf(lba) != int(i)/f.ways && st != New {
			return fmt.Errorf("cache: lba %d mapped outside its set", lba)
		}
	}
	if bound != f.bound {
		return fmt.Errorf("cache: lookup holds %d bindings, cached %d", bound, f.bound)
	}
	for i := range f.slots {
		if f.free.Has(int64(i)) != (f.slots[i].State == Free) {
			return fmt.Errorf("cache: %v slot %d free bit %v", f.slots[i].State, i, f.free.Has(int64(i)))
		}
	}
	return f.checkLists()
}

// checkLists walks every recency list: members are the list's set and
// state, doubly linked, strictly ascending by (LastUse, slot index), and
// together number the listed states' populations; nothing else is linked.
func (f *Frame) checkLists() error {
	var linked [numStates]int64
	for l, h := range f.heads {
		set, st := l/numStates, State(l%numStates)
		prev := NoSlot
		for i := h; i != NoSlot; prev, i = i, f.slots[i].next {
			sl := &f.slots[i]
			switch {
			case !listed(st):
				return fmt.Errorf("cache: slot %d on the list of unlisted state %v", i, st)
			case sl.State != st || int(i)/f.ways != set:
				return fmt.Errorf("cache: %v slot %d on the %v list of set %d", sl.State, i, st, set)
			case sl.prev != prev:
				return fmt.Errorf("cache: slot %d prev link %d, want %d", i, sl.prev, prev)
			case prev != NoSlot && !f.older(prev, i):
				return fmt.Errorf("cache: set %d %v list out of recency order at slot %d", set, st, i)
			}
			if linked[st]++; linked[st] > f.counts[st] {
				return fmt.Errorf("cache: %v lists hold more than the %d %v slots", st, f.counts[st], st)
			}
		}
		if f.tails[l] != prev {
			return fmt.Errorf("cache: set %d %v list tail %d, want %d", set, st, f.tails[l], prev)
		}
	}
	for st := State(0); st < numStates; st++ {
		if listed(st) && linked[st] != f.counts[st] {
			return fmt.Errorf("cache: %v lists hold %d slots of %d", st, linked[st], f.counts[st])
		}
	}
	for i := range f.slots {
		if sl := &f.slots[i]; !listed(sl.State) && (sl.prev != NoSlot || sl.next != NoSlot) {
			return fmt.Errorf("cache: %v slot %d is linked", sl.State, i)
		}
	}
	return nil
}

// PageSize re-exported for convenience of policy implementations.
const PageSize = blockdev.PageSize
