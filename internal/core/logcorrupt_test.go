package core_test

import (
	"errors"
	"testing"

	"kddcache/internal/core"
	"kddcache/internal/metalog"
)

// TestRestoreFailsLoudOnCorruptMetadataLog: a metadata page corrupted
// between shutdown and restart must abort recovery with a descriptive
// error — a silently mis-rebuilt primary map would serve stale data.
func TestRestoreFailsLoudOnCorruptMetadataLog(t *testing.T) {
	r := newRig(t, 512)
	// Enough distinct entries to commit whole metadata pages.
	for wave := 0; wave < 2; wave++ {
		for lba := int64(0); lba < 300; lba++ {
			r.write(t, lba)
		}
	}
	if _, err := r.kdd.Flush(0); err != nil {
		t.Fatal(err)
	}
	ctr := r.kdd.Log().Counters()
	if ctr.Live() == 0 {
		t.Fatal("setup: no committed metadata pages")
	}
	// Silent bit-flip on a live log page: the device checksum passes, so
	// only the log's own page CRC can reject it.
	phys := int64(ctr.Head % uint64(r.cfg.MetaPages))
	if !r.ssd.Store().CorruptPageSilently(phys, 123) {
		t.Fatal("setup: log page not written")
	}
	_, _, err := core.Restore(r.cfg, 0, ctr, r.kdd.Log().BufferedEntries(), r.kdd.Staging())
	if !errors.Is(err, metalog.ErrLogCorrupt) {
		t.Fatalf("Restore = %v, want ErrLogCorrupt", err)
	}
}
