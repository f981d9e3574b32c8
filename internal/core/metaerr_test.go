package core_test

import (
	"fmt"
	"strings"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// flakyMetaSSD fails every write landing in the metadata partition while
// armed; cache-data writes pass through untouched.
type flakyMetaSSD struct {
	blockdev.Device
	metaPages int64
	fail      bool
}

func (f *flakyMetaSSD) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	if f.fail && lba < f.metaPages {
		return t, fmt.Errorf("meta partition write %d: %w", lba, blockdev.ErrMedia)
	}
	return f.Device.WritePages(t, lba, count, buf)
}

// TestMetaLogFailureSurfacesOnNextOp proves metadata-log flush failures on
// paths that cannot return them (read-fill logging, eviction logging,
// best-effort cleaning) are not swallowed: the error is recorded and the
// next top-level operation fails with it, as the RPO-zero design promises.
// Entries stay buffered in NVRAM across the failure, so once the device
// recovers the instance keeps working and the backlog flushes.
func TestMetaLogFailureSurfacesOnNextOp(t *testing.T) {
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDevice(fmt.Sprintf("d%d", i), 8192))
	}
	a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 8}, members)
	if err != nil {
		t.Fatal(err)
	}
	// The NVRAM metadata buffer coalesces entries by cache page, so the
	// cache must hold more distinct pages than fit in one log page
	// (~450 clean entries) or no flush — and no failure — ever happens.
	ssd := &flakyMetaSSD{Device: blockdev.NewNullDevice("ssd", 64+1024), metaPages: 64}
	k, err := core.New(core.Config{
		SSD: ssd, Backend: a,
		CachePages: 1024, Ways: 32,
		MetaPages: 64,
		Codec:     delta.NewModelled(1, 0.25),
	})
	if err != nil {
		t.Fatal(err)
	}

	// A few ops while the device is healthy.
	for lba := int64(0); lba < 32; lba++ {
		if _, err := k.Read(0, lba, nil); err != nil {
			t.Fatalf("healthy read %d: %v", lba, err)
		}
	}

	// Arm the failure and keep issuing read misses: fills and evictions log
	// clean/free entries until the NVRAM buffer reaches a page and the
	// flush hits the bad device. The failing logPut happens inside fill and
	// evictClean — neither can return an error — so the only correct
	// outcome is a later Read reporting it.
	ssd.fail = true
	var surfaced error
	for lba := int64(32); lba < 8000; lba++ {
		if _, err := k.Read(0, lba, nil); err != nil {
			surfaced = err
			break
		}
	}
	if surfaced == nil {
		t.Fatal("metadata-log write failure was swallowed: no operation surfaced it")
	}
	if !strings.Contains(surfaced.Error(), "meta partition write") {
		t.Fatalf("surfaced error does not identify the metadata failure: %v", surfaced)
	}

	// Repair the device: the instance must still be usable, and the flush
	// must drain the retained NVRAM backlog without error.
	ssd.fail = false
	// Drain any stickies recorded by ops issued between the failed flush
	// and the surfaced error.
	for i := 0; i < 4 && err == nil; i++ {
		_, err = k.Read(0, 5, nil)
	}
	if err != nil {
		t.Fatalf("read after repair: %v", err)
	}
	if _, err := k.Flush(0); err != nil {
		t.Fatalf("flush after repair: %v", err)
	}
}

// TestRejectsGeometriesBeyondUint32 is the regression test for the silent
// metalog.Entry truncation: DazPage and RaidLBA are uint32 on flash, so
// any geometry with page addresses >= 2^32 must be rejected loudly at
// construction instead of corrupting recovery metadata at runtime.
func TestRejectsGeometriesBeyondUint32(t *testing.T) {
	smallArray := func() *raid.Array {
		var members []blockdev.Device
		for i := 0; i < 5; i++ {
			members = append(members, blockdev.NewNullDevice(fmt.Sprintf("d%d", i), 4096))
		}
		a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 8}, members)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	hugeArray := func() *raid.Array {
		// 4 data members x 2^31 pages = 2^33 backend pages: RaidLBA would
		// wrap. Null devices and the sparse array keep this allocation-free.
		var members []blockdev.Device
		for i := 0; i < 5; i++ {
			members = append(members, blockdev.NewNullDevice(fmt.Sprintf("d%d", i), int64(1)<<31))
		}
		a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 16}, members)
		if err != nil {
			t.Fatal(err)
		}
		return a
	}

	// Cache partition extending past 2^32 SSD pages: DazPage would wrap.
	_, err := core.New(core.Config{
		SSD:        blockdev.NewNullDevice("ssd", (int64(1)<<32)+8192),
		Backend:    smallArray(),
		CachePages: int64(1) << 32, Ways: 256,
		MetaPages: 64,
		Codec:     delta.NewModelled(1, 0.25),
	})
	if err == nil || !strings.Contains(err.Error(), "uint32") {
		t.Fatalf("huge cache accepted (or unclear error): %v", err)
	}

	// Backend larger than 2^32 pages: RaidLBA would wrap.
	cfg := core.Config{
		SSD:        blockdev.NewNullDevice("ssd", 1024),
		Backend:    hugeArray(),
		CachePages: 512, Ways: 32,
		MetaPages: 64,
		Codec:     delta.NewModelled(1, 0.25),
	}
	if _, err := core.New(cfg); err == nil || !strings.Contains(err.Error(), "uint32") {
		t.Fatalf("huge backend accepted (or unclear error): %v", err)
	}

	// Without the metadata log nothing is encoded as uint32, so the same
	// backend is fine (the no-persistence ablation supports any geometry).
	cfg.DisableMetaLog = true
	if _, err := core.New(cfg); err != nil {
		t.Fatalf("huge backend rejected with metadata log disabled: %v", err)
	}
}
