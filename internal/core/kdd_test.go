package core_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/nvram"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// rig is a full data-mode KDD stack with a flat oracle.
type rig struct {
	ssd   *blockdev.NullDevice
	array *raid.Array
	kdd   *core.KDD
	cfg   core.Config

	oracle map[int64][]byte
	mut    *delta.Mutator
	rng    *sim.RNG
}

// newRig builds a 5-disk RAID-5 with a KDD cache of cachePages pages,
// ZRLE codec, 25% content locality.
func newRig(t *testing.T, cachePages int64, opts ...func(*core.Config)) *rig {
	t.Helper()
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDataDevice("d", 4096))
	}
	a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 8}, members)
	if err != nil {
		t.Fatal(err)
	}
	ssd := blockdev.NewNullDataDevice("ssd", cachePages+256)
	cfg := core.Config{
		SSD:        ssd,
		Backend:    a,
		CachePages: cachePages,
		Ways:       32,
		MetaPages:  64,
		Codec:      delta.ZRLE{},
	}
	for _, o := range opts {
		o(&cfg)
	}
	k, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		ssd: ssd, array: a, kdd: k, cfg: cfg,
		oracle: make(map[int64][]byte),
		mut:    delta.NewMutator(5, 0.25),
		rng:    sim.NewRNG(42),
	}
}

// write issues a content-local update of lba through KDD.
func (r *rig) write(t *testing.T, lba int64) {
	t.Helper()
	page := make([]byte, blockdev.PageSize)
	if prev, ok := r.oracle[lba]; ok {
		copy(page, prev)
		r.mut.Mutate(page)
	} else {
		r.mut.FillRandom(page)
	}
	if _, err := r.kdd.Write(0, lba, page); err != nil {
		t.Fatalf("write %d: %v", lba, err)
	}
	r.oracle[lba] = page
}

// verifyCache checks read-your-writes through the cache.
func (r *rig) verifyCache(t *testing.T) {
	t.Helper()
	buf := make([]byte, blockdev.PageSize)
	for lba, want := range r.oracle {
		if _, err := r.kdd.Read(0, lba, buf); err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("lba %d: cache served wrong data", lba)
		}
	}
}

// verifyRAID checks the array contents directly (data is always
// dispatched to RAID in KDD).
func (r *rig) verifyRAID(t *testing.T) {
	t.Helper()
	buf := make([]byte, blockdev.PageSize)
	for lba, want := range r.oracle {
		if _, err := r.array.ReadPages(0, lba, 1, buf); err != nil {
			t.Fatalf("raid read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want) {
			t.Fatalf("lba %d: RAID holds wrong data", lba)
		}
	}
}

func TestWriteMissThenHitBasics(t *testing.T) {
	r := newRig(t, 256)
	r.write(t, 10) // miss: parity write, cached clean
	st := r.kdd.Stats()
	if st.WriteMiss != 1 || st.WriteAllocs != 1 {
		t.Fatalf("miss accounting: %+v", st)
	}
	if r.array.StaleRows() != 0 {
		t.Fatal("write miss must not delay parity")
	}
	r.write(t, 10) // hit: no-parity write + staged delta
	st = r.kdd.Stats()
	if st.WriteHits != 1 || st.SmallWritesSaved != 1 {
		t.Fatalf("hit accounting: %+v", st)
	}
	if r.array.StaleRows() != 1 {
		t.Fatal("write hit should delay parity")
	}
	if r.kdd.Staging().Len() != 1 {
		t.Fatal("delta not staged")
	}
	r.verifyCache(t)
	r.verifyRAID(t)
	if err := r.kdd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReadOldCombinesStagedDelta(t *testing.T) {
	r := newRig(t, 256)
	r.write(t, 5)
	r.write(t, 5) // now Old with staged delta
	buf := make([]byte, blockdev.PageSize)
	if _, err := r.kdd.Read(0, 5, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, r.oracle[5]) {
		t.Fatal("combine(old, staged delta) wrong")
	}
	if r.kdd.Stats().ReadHits != 1 {
		t.Fatal("old-page read not counted as hit")
	}
}

func TestDezCommitAndReadFromDez(t *testing.T) {
	r := newRig(t, 512)
	// Update many distinct pages so the staging buffer (4 pages = 16KB)
	// fills and commits DEZ pages.
	for lba := int64(0); lba < 100; lba++ {
		r.write(t, lba)
	}
	for lba := int64(0); lba < 100; lba++ {
		r.write(t, lba)
	}
	st := r.kdd.Stats()
	if st.DeltaCommits == 0 {
		t.Fatal("staging never committed a DEZ page")
	}
	if r.kdd.Frame().Count(cache.Delta) == 0 {
		t.Fatal("no delta pages in frame")
	}
	r.verifyCache(t) // many reads now combine from DEZ pages
	if err := r.kdd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestDeltaCoalescingInvalidatesCommitted(t *testing.T) {
	r := newRig(t, 512)
	for lba := int64(0); lba < 60; lba++ {
		r.write(t, lba)
	}
	for lba := int64(0); lba < 60; lba++ {
		r.write(t, lba) // deltas staged/committed
	}
	// Third wave supersedes: committed DEZ deltas must be invalidated.
	for lba := int64(0); lba < 60; lba++ {
		r.write(t, lba)
	}
	r.verifyCache(t)
	if err := r.kdd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestCleanerRepairsParityAndReclaims(t *testing.T) {
	r := newRig(t, 256)
	for wave := 0; wave < 2; wave++ {
		for lba := int64(0); lba < 120; lba++ {
			r.write(t, lba)
		}
	}
	st := r.kdd.Stats()
	if st.ParityUpdates == 0 || st.Reclaims == 0 {
		t.Fatalf("cleaner never ran: %+v", st)
	}
	r.verifyCache(t)
	// Force-flush the rest, then verify the array is self-consistent.
	if _, err := r.kdd.Flush(0); err != nil {
		t.Fatal(err)
	}
	if r.array.StaleRows() != 0 {
		t.Fatalf("flush left %d stale rows", r.array.StaleRows())
	}
	if r.kdd.DirtyPages() != 0 {
		t.Fatalf("flush left %d dirty pages", r.kdd.DirtyPages())
	}
	r.array.FailDisk(1)
	r.verifyRAID(t) // degraded reads must reconstruct everything
	if err := r.kdd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestParityReconstructWhenRowFullyCached(t *testing.T) {
	r := newRig(t, 1024)
	// A row is 4 pages (4 data chunks, chunk=8 → peers at same offset).
	peers := r.array.RowPeers(0)
	if len(peers) != 4 {
		t.Fatalf("peers = %v", peers)
	}
	for _, p := range peers {
		r.write(t, p) // admit all — fully cached row
	}
	for _, p := range peers {
		r.write(t, p) // update all — all Old now
	}
	before := r.array.Stats().RebuildReads
	if _, err := r.kdd.Flush(0); err != nil {
		t.Fatal(err)
	}
	// Reconstruct-write reads nothing from disk.
	if got := r.array.Stats().RebuildReads; got != before {
		t.Fatalf("reconstruct path read %d disk pages", got-before)
	}
	r.array.FailDisk(0)
	r.verifyRAID(t)
}

func TestRawDeltaFallbackForIncompressibleWrites(t *testing.T) {
	r := newRig(t, 256)
	lba := int64(3)
	page := make([]byte, blockdev.PageSize)
	r.mut.FillRandom(page)
	if _, err := r.kdd.Write(0, lba, page); err != nil {
		t.Fatal(err)
	}
	r.oracle[lba] = append([]byte(nil), page...)
	// Completely new random content: XOR is dense, delta incompressible.
	page2 := make([]byte, blockdev.PageSize)
	r.mut.FillRandom(page2)
	if _, err := r.kdd.Write(0, lba, page2); err != nil {
		t.Fatal(err)
	}
	r.oracle[lba] = page2
	r.verifyCache(t)
	if _, err := r.kdd.Flush(0); err != nil {
		t.Fatal(err)
	}
	r.array.FailDisk(2)
	r.verifyRAID(t)
}

func TestEvictionPressureSmallCache(t *testing.T) {
	r := newRig(t, 64) // tiny: 2 sets of 32
	for i := 0; i < 2000; i++ {
		r.write(t, int64(r.rng.Uint64n(300)))
	}
	if r.kdd.Stats().Evictions == 0 {
		t.Fatal("no evictions under pressure")
	}
	r.verifyCache(t)
	r.verifyRAID(t)
	if err := r.kdd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomMixedOpsOracleProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := newRig(t, 128)
		rng := sim.NewRNG(seed)
		buf := make([]byte, blockdev.PageSize)
		for i := 0; i < 800; i++ {
			lba := int64(rng.Uint64n(500))
			switch {
			case rng.Float64() < 0.55:
				page := make([]byte, blockdev.PageSize)
				if prev, ok := r.oracle[lba]; ok {
					copy(page, prev)
					r.mut.Mutate(page)
				} else {
					r.mut.FillRandom(page)
				}
				if _, err := r.kdd.Write(0, lba, page); err != nil {
					t.Logf("write: %v", err)
					return false
				}
				r.oracle[lba] = page
			default:
				want, ok := r.oracle[lba]
				if _, err := r.kdd.Read(0, lba, buf); err != nil {
					t.Logf("read: %v", err)
					return false
				}
				if ok && !bytes.Equal(buf, want) {
					t.Logf("read mismatch at %d", lba)
					return false
				}
			}
			if i%200 == 199 {
				if _, err := r.kdd.Clean(0, false); err != nil {
					return false
				}
			}
		}
		if err := r.kdd.CheckInvariants(); err != nil {
			t.Logf("invariants: %v", err)
			return false
		}
		if _, err := r.kdd.Flush(0); err != nil {
			return false
		}
		return r.array.StaleRows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

func TestTimingModeWithModelledCodec(t *testing.T) {
	// Timing mode: nil buffers, modelled Gaussian deltas — the simulator
	// configuration for Figures 4-8.
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDevice("d", 65536))
	}
	a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 16}, members)
	if err != nil {
		t.Fatal(err)
	}
	ssd := blockdev.NewNullDevice("ssd", 8192)
	k, err := core.New(core.Config{
		SSD: ssd, Backend: a, CachePages: 4096, Ways: 64,
		MetaPages: 48,
		Codec:     delta.NewModelled(3, 0.25),
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := sim.NewRNG(8)
	for i := 0; i < 30000; i++ {
		lba := int64(rng.Uint64n(8000))
		if rng.Float64() < 0.3 {
			if _, err := k.Read(0, lba, nil); err != nil {
				t.Fatal(err)
			}
		} else {
			if _, err := k.Write(0, lba, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	st := k.Stats()
	if st.DeltaCommits == 0 || st.MetaWrites == 0 {
		t.Fatalf("timing-mode KDD idle: %+v", st)
	}
	if st.SSDWrites() >= st.Requests() {
		t.Fatalf("KDD wrote %d pages for %d requests; delta packing absent",
			st.SSDWrites(), st.Requests())
	}
	if err := k.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Flush(0); err != nil {
		t.Fatal(err)
	}
	if a.StaleRows() != 0 {
		t.Fatal("stale rows after flush")
	}
}

func TestNameReflectsCodec(t *testing.T) {
	r := newRig(t, 64)
	if r.kdd.Name() != "KDD(zrle)" {
		t.Fatalf("name = %s", r.kdd.Name())
	}
	r2 := newRig(t, 64, func(c *core.Config) { c.Codec = delta.NewModelled(1, 0.12) })
	if r2.kdd.Name() != "KDD-12%" {
		t.Fatalf("name = %s", r2.kdd.Name())
	}
}

func TestConfigValidation(t *testing.T) {
	good := func() core.Config {
		return core.Config{
			SSD:     blockdev.NewNullDevice("s", 4096),
			Backend: mustArray(t),
			Codec:   delta.ZRLE{}, CachePages: 256, Ways: 32,
			MetaPages: 16,
		}
	}
	if _, err := core.New(good()); err != nil {
		t.Fatal(err)
	}
	bads := []func(*core.Config){
		func(c *core.Config) { c.SSD = nil },
		func(c *core.Config) { c.Backend = nil },
		func(c *core.Config) { c.Codec = nil },
		func(c *core.Config) { c.CachePages = 8 },
		func(c *core.Config) { c.MetaPages = 0 },
		func(c *core.Config) { c.CachePages = 100000 },
		func(c *core.Config) { c.FixedDEZSets = 100 },
	}
	for i, b := range bads {
		cfg := good()
		b(&cfg)
		if _, err := core.New(cfg); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestMetaLogGeometryIsAnError: a metadata partition too small or too
// large for the log's int32 ring slots is the log's error, and one that
// pushes the cache off the end of the SSD is core's — from New and
// Restore, not a panic.
func TestMetaLogGeometryIsAnError(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  func(*core.Config)
		want string
	}{
		{"one page", func(c *core.Config) { c.MetaPages = 1 }, "metalog"},
		{"2^31 pages", func(c *core.Config) {
			c.SSD, c.MetaPages = blockdev.NewNullDevice("s", 1<<31+4096), 1<<31
		}, "metalog"},
		{"past the device", func(c *core.Config) { c.MetaPages = 4000 }, "SSD too small"},
	} {
		cfg := core.Config{
			SSD:     blockdev.NewNullDevice("s", 4096),
			Backend: mustArray(t),
			Codec:   delta.ZRLE{}, CachePages: 256, Ways: 32,
			MetaPages: 16,
		}
		tc.bad(&cfg)
		if _, err := core.New(cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New: %v, want an error naming %q", tc.name, err, tc.want)
		}
		if _, _, err := core.Restore(cfg, 0, &nvram.Counters{}, nil, nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Restore: %v, want an error naming %q", tc.name, err, tc.want)
		}
	}
}

func mustArray(t *testing.T) *raid.Array {
	t.Helper()
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDevice("d", 4096))
	}
	a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 8}, members)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestWriteWithoutPayload: a nil buffer on a data-mode engine used to reach
// ZRLE.Encode(nil, nil) on the first write hit and panic. It is refused
// with a typed error on hit and miss alike, and leaves no trace.
func TestWriteWithoutPayload(t *testing.T) {
	r := newRig(t, 1024)
	r.write(t, 17) // lba 17 cached: the nil write below is a hit
	for _, lba := range []int64{17, 18} {
		if _, err := r.kdd.Write(0, lba, nil); !errors.Is(err, core.ErrNoPayload) {
			t.Fatalf("Write(lba %d, nil) = %v, want ErrNoPayload", lba, err)
		}
		if _, err := r.kdd.Serve(0, lba, nil, true, false); !errors.Is(err, core.ErrNoPayload) {
			t.Fatalf("no-admit write(lba %d, nil) = %v, want ErrNoPayload", lba, err)
		}
	}
	r.write(t, 17)
	r.verifyCache(t)
	if err := r.kdd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
