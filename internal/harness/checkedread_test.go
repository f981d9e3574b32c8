package harness

import (
	"bytes"
	"errors"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/cache"
	"kddcache/internal/core"
	"kddcache/internal/sim"
)

// timedDataStack is the stack the data workloads run on: HDD members and
// the FTL SSD model, every device carrying real bytes.
func timedDataStack(t *testing.T, backend string) *Stack {
	t.Helper()
	st, err := Build(StackOpts{Policy: PolicyKDD, Backend: backend, CachePages: 256, DiskPages: 4096,
		Ways: 32, Timing: true, DataMode: true, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func patternPage(lba int64) []byte {
	p := make([]byte, blockdev.PageSize)
	for i := range p {
		p[i] = byte(int64(i)*7 + lba)
	}
	return p
}

// TestTimedMemberCorruptionIsHealed: a bit flipped behind a timed data
// member's checksum is an ErrMedia at the member, the array serves the
// page's bytes from redundancy, and read-repair rewrites the member page
// so it verifies again — on both backends.
func TestTimedMemberCorruptionIsHealed(t *testing.T) {
	for _, backend := range []string{"kdd", "lsraid"} {
		t.Run(backend, func(t *testing.T) {
			st := timedDataStack(t, backend)
			a := st.Array
			// A whole stripe, so the log-structured backend commits a row.
			n := int(a.StripePages())
			buf := make([]byte, n*blockdev.PageSize)
			for i := 0; i < n; i++ {
				copy(buf[i*blockdev.PageSize:], patternPage(int64(i)))
			}
			now, err := a.WritePages(0, 0, n, buf)
			if err != nil {
				t.Fatal(err)
			}
			const lba = 3
			disk, row := a.DataLocation(lba)
			if disk < 0 {
				t.Fatalf("lba %d has no member home after a full-stripe write", lba)
			}
			member := a.Member(disk)
			store := member.(blockdev.Storer).Store()
			if !store.CorruptPage(row, 1234) {
				t.Fatalf("member %d page %d is unwritten", disk, row)
			}
			got := make([]byte, blockdev.PageSize)
			if _, err := member.ReadPages(now, row, 1, got); !errors.Is(err, blockdev.ErrMedia) {
				t.Fatalf("member read of a corrupt page: %v, want ErrMedia", err)
			}
			before := a.Stats()
			if now, err = a.ReadPages(now, lba, 1, got); err != nil {
				t.Fatalf("array read over a corrupt member page: %v", err)
			}
			if !bytes.Equal(got, patternPage(lba)) {
				t.Fatal("array read served the corrupt bytes")
			}
			after := a.Stats()
			if after.MediaErrors == before.MediaErrors || after.ReadRepairs == before.ReadRepairs {
				t.Fatalf("no media error or read-repair counted: before %+v after %+v", before, after)
			}
			if !store.VerifyPage(row) {
				t.Fatal("read-repair left the member page corrupt")
			}
			if _, err := member.ReadPages(now, row, 1, got); err != nil || !bytes.Equal(got, patternPage(lba)) {
				t.Fatalf("healed member page: %v (bytes equal %v)", err, bytes.Equal(got, patternPage(lba)))
			}
		})
	}
}

// TestTimedSSDCorruptionGoesThroughRecoverHit: a bit flipped behind the
// timed SSD's checksum under a clean cache hit is an SSD media error; the
// engine serves the page from the array, retires the slot and refills it,
// and the next read is an ordinary hit.
func TestTimedSSDCorruptionGoesThroughRecoverHit(t *testing.T) {
	st := timedDataStack(t, "kdd")
	k := st.Policy.(*core.KDD)
	const lba = 77
	now, err := k.Write(0, lba, patternPage(lba))
	if err != nil {
		t.Fatal(err)
	}
	slot := k.Frame().Lookup(lba)
	if slot == cache.NoSlot || k.Frame().Slot(slot).State != cache.Clean {
		t.Fatalf("lba %d is not a clean cache page after its write", lba)
	}
	page := st.KDDConfig.MetaPages + int64(slot)
	store := st.SSDInj.Store()
	if !store.CorruptPage(page, 99) {
		t.Fatalf("SSD page %d is unwritten", page)
	}
	got := make([]byte, blockdev.PageSize)
	if now, err = k.Read(now, lba, got); err != nil {
		t.Fatalf("read over a corrupt SSD page: %v", err)
	}
	if !bytes.Equal(got, patternPage(lba)) {
		t.Fatal("cache hit served the corrupt bytes")
	}
	s := k.Stats()
	if s.SSDMediaErrors != 1 || s.MediaFallbacks != 1 {
		t.Fatalf("SSD media errors %d, fallbacks %d; want 1 and 1", s.SSDMediaErrors, s.MediaFallbacks)
	}
	if !store.VerifyPage(page) {
		t.Fatal("the corrupt SSD page is still mapped and unhealed")
	}
	hits := s.ReadHits
	if _, err := k.Read(now+sim.Millisecond, lba, got); err != nil || !bytes.Equal(got, patternPage(lba)) {
		t.Fatalf("read after healing: %v (bytes equal %v)", err, bytes.Equal(got, patternPage(lba)))
	}
	if s = k.Stats(); s.ReadHits != hits+1 || s.MediaFallbacks != 1 {
		t.Fatalf("read after healing: hits %d -> %d, fallbacks %d; want a plain hit", hits, s.ReadHits, s.MediaFallbacks)
	}
}
