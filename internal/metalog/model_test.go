package metalog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"reflect"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/nvram"
	"kddcache/internal/sim"
)

// mapLog is the three-map log the dense tables replaced — buf and
// bufOrder, pageLists keyed by page sequence, latest keyed by cache page —
// kept as the oracle: same NVRAM buffer, same counters, same stats, same
// bytes on flash for every operation sequence.
type mapLog struct {
	dev       blockdev.Device
	npages    int64
	ctr       *nvram.Counters
	bufOrder  []uint32
	buf       map[uint32]Entry
	bufBytes  int
	pageLists map[uint64][]Entry
	latest    map[uint32]uint64
	stats     Stats
}

const modelInBuffer = ^uint64(0)

func newMapLog(dev blockdev.Device, npages int64) *mapLog {
	return &mapLog{
		dev: dev, npages: npages, ctr: &nvram.Counters{}, buf: map[uint32]Entry{},
		pageLists: map[uint64][]Entry{}, latest: map[uint32]uint64{},
	}
}

func restoreMapLog(dev blockdev.Device, npages int64, ctr *nvram.Counters, buffered []Entry) *mapLog {
	m := newMapLog(dev, npages)
	m.ctr = ctr
	for _, e := range buffered {
		m.bufInsert(e)
	}
	return m
}

func (m *mapLog) buffered() []Entry {
	out := make([]Entry, 0, len(m.bufOrder))
	for _, k := range m.bufOrder {
		if e, ok := m.buf[k]; ok {
			out = append(out, e)
		}
	}
	return out
}

func (m *mapLog) reinit() {
	m.ctr = &nvram.Counters{RebuildActive: m.ctr.RebuildActive, RebuildDisk: m.ctr.RebuildDisk, RebuildRow: m.ctr.RebuildRow}
	m.bufOrder, m.buf, m.bufBytes = nil, map[uint32]Entry{}, 0
	m.pageLists, m.latest = map[uint64][]Entry{}, map[uint32]uint64{}
}

func (m *mapLog) bufInsert(e Entry) {
	if prev, ok := m.buf[e.DazPage]; ok {
		m.bufBytes -= prev.encSize()
	} else {
		m.bufOrder = append(m.bufOrder, e.DazPage)
	}
	m.buf[e.DazPage] = e
	m.bufBytes += e.encSize()
	m.latest[e.DazPage] = modelInBuffer
}

func (m *mapLog) put(e Entry) error {
	m.bufInsert(e)
	return m.flushFull()
}

func (m *mapLog) flushFull() error {
	for rounds := m.npages + 2; m.bufBytes >= blockdev.PageSize; rounds-- {
		if rounds <= 0 {
			return ErrLogFull
		}
		if err := m.flushPage(); err != nil {
			return err
		}
	}
	return nil
}

func (m *mapLog) flushAll() error {
	for len(m.buf) > 0 {
		if err := m.flushPage(); err != nil {
			return err
		}
	}
	return nil
}

func (m *mapLog) flushPage() error {
	if len(m.buf) == 0 {
		return nil
	}
	if err := m.maybeGC(); err != nil {
		return err
	}
	var page [blockdev.PageSize]byte
	var flushed []Entry
	used := 0
	for _, k := range m.bufOrder {
		e, ok := m.buf[k]
		if !ok {
			continue
		}
		if used+e.encSize() > logPagePayload {
			break
		}
		used += e.encode(page[logPageHdrLen+used:])
		flushed = append(flushed, e)
	}
	binary.LittleEndian.PutUint16(page[0:], logPageMagic)
	binary.LittleEndian.PutUint16(page[2:], uint16(used))
	binary.LittleEndian.PutUint32(page[4:], crc32.ChecksumIEEE(page[logPageHdrLen:logPageHdrLen+used]))
	seq := m.ctr.Tail
	var buf []byte
	if s, ok := m.dev.(blockdev.Storer); ok && s.Store() != nil {
		buf = page[:]
	}
	if _, err := m.dev.WritePages(0, int64(seq%uint64(m.npages)), 1, buf); err != nil {
		return err
	}
	m.ctr.Tail++
	for _, e := range flushed {
		delete(m.buf, e.DazPage)
		m.bufBytes -= e.encSize()
	}
	kept := m.bufOrder[:0]
	for _, k := range m.bufOrder {
		if _, ok := m.buf[k]; ok {
			kept = append(kept, k)
		}
	}
	m.bufOrder = kept
	m.pageLists[seq] = flushed
	for _, e := range flushed {
		m.latest[e.DazPage] = seq
		m.stats.EntriesLogged++
	}
	m.stats.PagesWritten++
	return nil
}

func (m *mapLog) maybeGC() error {
	max := int64(float64(m.npages) * gcThreshold)
	if max < 1 {
		max = 1
	}
	guard := m.npages * 2
	for int64(m.ctr.Live()) >= max {
		if guard--; guard < 0 {
			return ErrLogFull
		}
		head := m.ctr.Head
		if head == m.ctr.Tail {
			return nil
		}
		m.stats.GCRuns++
		for _, e := range m.pageLists[head] {
			if m.latest[e.DazPage] != head {
				continue
			}
			if e.State == StateFree {
				delete(m.latest, e.DazPage)
				continue
			}
			m.bufInsert(e)
			m.stats.ReinsertedEntries++
			m.stats.ReinsertedBytes += int64(e.encSize())
		}
		delete(m.pageLists, head)
		m.ctr.Head++
		if m.bufBytes >= blockdev.PageSize && int64(m.ctr.Live()) < max {
			break
		}
	}
	return nil
}

func (m *mapLog) recover(t *testing.T) []Entry {
	m.stats.Recoveries++
	m.pageLists, m.latest = map[uint64][]Entry{}, map[uint32]uint64{}
	var page [blockdev.PageSize]byte
	var replay []Entry
	for seq := m.ctr.Head; seq != m.ctr.Tail; seq++ {
		phys := int64(seq % uint64(m.npages))
		if _, err := m.dev.ReadPages(0, phys, 1, page[:]); err != nil {
			t.Fatalf("model recovery read: %v", err)
		}
		entries, err := decodePage(nil, page[:], seq, phys)
		if err != nil {
			t.Fatalf("model recovery decode: %v", err)
		}
		m.pageLists[seq] = entries
		for _, e := range entries {
			m.latest[e.DazPage] = seq
			replay = append(replay, e)
		}
	}
	for _, k := range m.bufOrder {
		if e, ok := m.buf[k]; ok {
			m.latest[e.DazPage] = modelInBuffer
			replay = append(replay, e)
		}
	}
	return replay
}

// TestLogMatchesMapModel drives random Put / PutBuffered / FlushBatch /
// Flush / Reinit / crash (Restore + Recover) sequences
// through the dense-table log and the three-map oracle on twin devices. A
// tiny partition keeps GC and ring wrap-around busy, and armed crash
// points make page writes fail (torn) until the next recovery. After
// every step the NVRAM buffer, the counters and the stats agree; at every
// crash the partition's bytes and the replay streams agree, and both
// sides carry on from the recovered state. The timing-only arm persists
// no bytes, so it checks everything but flash and replay.
func TestLogMatchesMapModel(t *testing.T) {
	const devPages, keys = 700, 640
	for _, data := range []bool{true, false} {
		for seed := uint64(1); seed <= 6; seed++ {
			npages := int64(4 + 3*seed)
			newDev := func() *blockdev.FaultInjector {
				if data {
					return blockdev.NewFaultInjector(blockdev.NewNullDataDevice("ssd", devPages), seed)
				}
				return blockdev.NewFaultInjector(blockdev.NewNullDevice("ssd", devPages), seed)
			}
			devL, devM := newDev(), newDev()
			l := mustNew(devL, npages)
			m := newMapLog(devM, npages)
			rng := sim.NewRNG(seed)
			for step := 0; step < 12000; step++ {
				var errL, errM error
				switch op := rng.Intn(1000); {
				case op < 700:
					e := randomEntry(rng, keys)
					_, errL = l.Put(0, e)
					errM = m.put(e)
				case op < 960:
					e := randomEntry(rng, keys)
					l.PutBuffered(e)
					m.bufInsert(e)
				case op < 975:
					_, errL = l.FlushBatch(0)
					errM = m.flushFull()
				case op < 993:
					_, errL = l.Flush(0)
					errM = m.flushAll()
				case op < 995:
					l.Reinit(nil)
					m.reinit()
				case op < 997:
					after, torn := int64(rng.Intn(4)), rng.Intn(blockdev.PageSize)
					devL.ArmCrash(after, 0, torn)
					devM.ArmCrash(after, 0, torn)
				default:
					devL.ClearCrash()
					devM.ClearCrash()
					if !data {
						continue
					}
					if !bytes.Equal(partitionBytes(devL, npages), partitionBytes(devM, npages)) {
						t.Fatalf("seed %d step %d: bytes on flash differ", seed, step)
					}
					ctrL, ctrM := *l.Counters(), *m.ctr
					statsL, statsM := l.Stats(), m.stats
					l = mustRestore(devL, npages, &ctrL, l.BufferedEntries())
					m = restoreMapLog(devM, npages, &ctrM, m.buffered())
					l.stats, m.stats = statsL, statsM
					replayL, _, err := l.Recover(0)
					if err != nil {
						t.Fatalf("seed %d step %d: Recover: %v", seed, step, err)
					}
					if replayM := m.recover(t); !reflect.DeepEqual(replayL, replayM) {
						t.Fatalf("seed %d step %d: replay differs: %d entries vs model %d", seed, step, len(replayL), len(replayM))
					}
				}
				for _, kind := range []error{nil, ErrLogFull, blockdev.ErrCrashed} {
					if errors.Is(errL, kind) != errors.Is(errM, kind) {
						t.Fatalf("seed %d step %d: err %v, model %v", seed, step, errL, errM)
					}
				}
				if got, want := l.BufferedEntries(), m.buffered(); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d step %d: buffer %v, model %v", seed, step, got, want)
				}
				if l.bufBytes != m.bufBytes || *l.Counters() != *m.ctr || l.Stats() != m.stats {
					t.Fatalf("seed %d step %d: bytes %d ctr %+v stats %+v; model %d %+v %+v",
						seed, step, l.bufBytes, *l.Counters(), l.Stats(), m.bufBytes, *m.ctr, m.stats)
				}
			}
			if st := l.Stats(); st.GCRuns == 0 || st.PagesWritten < 3*npages {
				t.Fatalf("seed %d: GC runs %d, %d pages written: the run never wrapped the ring", seed, st.GCRuns, st.PagesWritten)
			}
		}
	}
}

func randomEntry(rng *sim.RNG, keys int) Entry {
	e := Entry{State: State(rng.Intn(3)), DazPage: uint32(rng.Intn(keys)), DezPage: NoDez}
	switch e.State {
	case StateClean:
		e.RaidLBA = uint32(rng.Uint64n(1 << 20))
	case StateOld:
		e.RaidLBA = uint32(rng.Uint64n(1 << 20))
		e.DezPage = uint32(rng.Intn(keys))
		e.DezOff = uint16(rng.Intn(4096))
		e.DezLen = uint16(rng.Intn(4096))
		e.DezRaw = rng.Intn(8) == 0
	}
	return e
}

func partitionBytes(dev *blockdev.FaultInjector, npages int64) []byte {
	out := make([]byte, npages*blockdev.PageSize)
	for i := int64(0); i < npages; i++ {
		dev.Store().ReadPage(i, out[i*blockdev.PageSize:(i+1)*blockdev.PageSize])
	}
	return out
}
