package lsraid

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/obs"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// fillCommitted writes n pages and returns their contents, sized so
// every staged page drains (n must be a multiple of the segment's data
// pages, since the row buffer flushes a segment at a time).
func fillCommitted(t *testing.T, a *Array, n int64) map[int64][]byte {
	t.Helper()
	want := make(map[int64][]byte, n)
	var tt sim.Time
	for lba := int64(0); lba < n; lba++ {
		p := pageOf(lba, 1)
		want[lba] = p
		done, err := a.WritePages(tt, lba, 1, p)
		if err != nil {
			t.Fatalf("write %d: %v", lba, err)
		}
		tt = done
	}
	if a.PendingPages() != 0 {
		t.Fatalf("%d pages still pending; size the fill to a segment multiple", a.PendingPages())
	}
	return want
}

// TestGeometryAndObservability covers the identity/geometry surface and
// the metrics contract: the logical arithmetic must match a parity
// array of the same width, and a metrics snapshot must validate.
func TestGeometryAndObservability(t *testing.T) {
	a := testArray(t, 4, 256, 8)
	if a.Name() != "lsraid" {
		t.Fatalf("name %q", a.Name())
	}
	if a.Disks() != 4 || a.ChunkPages() != 4 || a.StripePages() != 12 {
		t.Fatalf("geometry: disks=%d chunk=%d stripe=%d", a.Disks(), a.ChunkPages(), a.StripePages())
	}
	if a.StripeOf(25) != 25/12 {
		t.Fatalf("StripeOf(25) = %d", a.StripeOf(25))
	}
	// RowPeers must match the parity engine's arithmetic exactly.
	var members []blockdev.Device
	for i := 0; i < 4; i++ {
		members = append(members, blockdev.NewNullDevice(fmt.Sprintf("p%d", i), 256))
	}
	ref, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 4}, members)
	if err != nil {
		t.Fatal(err)
	}
	for _, lba := range []int64{0, 3, 11, 12, 25, 47} {
		got, want := a.RowPeers(lba), ref.RowPeers(lba)
		if len(got) != len(want) {
			t.Fatalf("RowPeers(%d): %v vs raid5 %v", lba, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("RowPeers(%d): %v vs raid5 %v", lba, got, want)
			}
		}
	}
	for i := 0; i < 4; i++ {
		if a.Member(i) == nil || a.Injector(i) == nil {
			t.Fatalf("member %d accessors returned nil", i)
		}
	}
	tr := obs.New().Tracer
	a.SetTracer(tr)

	// Unwritten and staged pages have no physical home.
	if d, _ := a.DataLocation(7); d != -1 {
		t.Fatal("unwritten page reported a physical home")
	}
	if p, q, _ := a.ParityLocation(7); p != -1 || q != -1 {
		t.Fatal("unwritten page reported a parity home")
	}
	if _, err := a.WritePages(0, 7, 1, pageOf(7, 1)); err != nil {
		t.Fatal(err)
	}
	if d, _ := a.DataLocation(7); d != -1 {
		t.Fatal("staged page must report no physical home")
	}
	// Stage 8 and 9 beside 7: the bulk fill's other 21 pages then complete
	// one staged segment, so every row drains.
	for _, lba := range []int64{8, 9} {
		if _, err := a.WritePages(0, lba, 1, pageOf(lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	fillCommitted(t, a, 24)
	d, row := a.DataLocation(7)
	if d < 0 {
		t.Fatal("committed page has no physical home")
	}
	p, q, prow := a.ParityLocation(7)
	if p < 0 || q != -1 || prow != row || p == d {
		t.Fatalf("parity location (%d,%d,%d) vs data (%d,%d)", p, q, prow, d, row)
	}

	// The parity protocol is inert, including the reconstruct form.
	if _, err := a.ParityUpdateReconstruct(0, 7, nil); err != nil {
		t.Fatal(err)
	}
	gcc, gcs := a.GCStats()
	if gcc != a.Stats().GCCopies || gcs != a.Stats().GCSegments {
		t.Fatal("GCStats disagrees with Stats")
	}
	if a.FreeSegments() <= 0 || a.FreeSegments() > a.SegmentCount() {
		t.Fatalf("free segments %d of %d", a.FreeSegments(), a.SegmentCount())
	}
	reg := obs.NewRegistry()
	a.PublishMetrics(reg)
	if err := reg.Validate(); err != nil {
		t.Fatalf("metrics: %v", err)
	}
	if tr.Err() != nil {
		t.Fatalf("trace: %v", tr.Err())
	}
}

// TestDoubleFaultIsLoud drops two members: the array must refuse writes,
// fail reads of affected pages with ErrUnrecoverable (never silent
// zeros), and account the loss.
func TestDoubleFaultIsLoud(t *testing.T) {
	a := testArray(t, 4, 256, 8)
	want := fillCommitted(t, a, 48)
	a.FailDisk(1)
	a.FailDisk(3)
	if a.Survivable() {
		t.Fatal("two failures reported survivable")
	}
	if fd := a.FailedDisks(); len(fd) != 2 || fd[0] != 1 || fd[1] != 3 {
		t.Fatalf("FailedDisks = %v", fd)
	}
	if _, err := a.WritePages(0, 0, 1, pageOf(0, 2)); !errors.Is(err, raid.ErrTooManyFailures) {
		t.Fatalf("write with two failures: %v", err)
	}
	// A page whose data slot sits on a failed member cannot be served or
	// reconstructed; the failure must be loud.
	buf := make([]byte, blockdev.PageSize)
	loud, served := 0, 0
	for lba := int64(0); lba < 48; lba++ {
		d, _ := a.DataLocation(lba)
		_, err := a.ReadPages(0, lba, 1, buf)
		switch {
		case d == 1 || d == 3:
			if !errors.Is(err, raid.ErrUnrecoverable) {
				t.Fatalf("lba %d on failed member: got %v", lba, err)
			}
			loud++
		default:
			if err != nil {
				t.Fatalf("lba %d on surviving member: %v", lba, err)
			}
			if !bytes.Equal(buf, want[lba]) {
				t.Fatalf("lba %d wrong bytes", lba)
			}
			served++
		}
	}
	if loud == 0 || served == 0 {
		t.Fatalf("degenerate layout: %d loud, %d served", loud, served)
	}
	if len(a.LostRows()) == 0 || a.Stats().LostPages == 0 {
		t.Fatal("loss not accounted")
	}
}

// TestScrubTwoFaultRow seeds latent faults on two members of the same
// committed row: the scrub must report the row unrecoverable and mark
// its live pages lost, loudly.
func TestScrubTwoFaultRow(t *testing.T) {
	a := testArray(t, 4, 256, 8)
	fillCommitted(t, a, 48)
	var victim int64 = -1
	for lba := int64(0); lba < 48; lba++ {
		if d, row := a.DataLocation(lba); d >= 0 {
			p, _, _ := a.ParityLocation(lba)
			a.Injector(d).InjectBadPage(row)
			a.Injector(p).InjectBadPage(row)
			victim = lba
			break
		}
	}
	if victim < 0 {
		t.Fatal("no committed page found")
	}
	_, rep, err := a.Scrub(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Unrecoverable) == 0 {
		t.Fatal("scrub silently passed a double-fault row")
	}
	buf := make([]byte, blockdev.PageSize)
	if _, err := a.ReadPages(0, victim, 1, buf); !errors.Is(err, raid.ErrUnrecoverable) {
		t.Fatalf("read of scrub-lost page: %v", err)
	}
}

// TestReplaceDiskBlocking exercises the administrative replace path and
// its guard rails.
func TestReplaceDiskBlocking(t *testing.T) {
	a := testArray(t, 4, 256, 8)
	want := fillCommitted(t, a, 48)
	// Guards: replacing a healthy member, wrong-size replacements.
	if _, err := a.ReplaceDisk(0, 2, blockdev.NewNullDataDevice("f", 256)); !errors.Is(err, raid.ErrNotDegraded) {
		t.Fatalf("replace healthy member: %v", err)
	}
	if err := a.AddSpare(blockdev.NewNullDataDevice("small", 64)); !errors.Is(err, raid.ErrBadGeometry) {
		t.Fatalf("undersized spare: %v", err)
	}
	a.FailDisk(2)
	if _, err := a.ReplaceDisk(0, 2, blockdev.NewNullDataDevice("small", 64)); !errors.Is(err, raid.ErrBadGeometry) {
		t.Fatalf("undersized replacement: %v", err)
	}
	if _, err := a.ReplaceDisk(0, 2, blockdev.NewNullDataDevice("fresh", 256)); err != nil {
		t.Fatal(err)
	}
	if !a.Healthy() {
		t.Fatal("not healthy after ReplaceDisk")
	}
	buf := make([]byte, blockdev.PageSize)
	a.FailDisk(0) // read everything THROUGH the replaced member
	for lba := int64(0); lba < 48; lba++ {
		if _, err := a.ReadPages(0, lba, 1, buf); err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want[lba]) {
			t.Fatalf("lba %d wrong after replace", lba)
		}
	}
}

// TestResumeRebuildCheckpoint crashes a rebuild mid-window and resumes
// it from the checkpointed watermark, plus the resume guard rails.
func TestResumeRebuildCheckpoint(t *testing.T) {
	a := testArray(t, 4, 256, 8)
	want := fillCommitted(t, a, 96)
	a.FailDisk(1)
	if _, err := a.StartRebuild(0, 1, blockdev.NewNullDataDevice("fresh", 256)); err != nil {
		t.Fatal(err)
	}
	if _, n, complete, err := a.RebuildStep(0, 40); err != nil || complete || n != 40 {
		t.Fatalf("first step: n=%d complete=%v err=%v", n, complete, err)
	}
	disk, watermark, active := a.RebuildTarget()
	if !active || disk != 1 || watermark != 40 {
		t.Fatalf("target (%d,%d,%v)", disk, watermark, active)
	}
	// Power loss: the watermark is volatile; NVRAM (the core's job)
	// rechecks it in via ResumeRebuild.
	a.CrashRebuildState()
	if a.RebuildActive() {
		t.Fatal("rebuild survived CrashRebuildState")
	}
	if err := a.ResumeRebuild(-1, 0); !errors.Is(err, raid.ErrBadGeometry) {
		t.Fatalf("resume bad disk: %v", err)
	}
	if err := a.ResumeRebuild(1, -5); !errors.Is(err, raid.ErrBadGeometry) {
		t.Fatalf("resume bad watermark: %v", err)
	}
	if err := a.ResumeRebuild(1, 256); err != nil || a.RebuildActive() {
		t.Fatalf("at-end watermark must close the window: %v", err)
	}
	if err := a.ResumeRebuild(1, watermark); err != nil {
		t.Fatal(err)
	}
	for a.RebuildActive() {
		if _, _, _, err := a.RebuildStep(0, 64); err != nil {
			t.Fatal(err)
		}
	}
	if a.Stats().RebuildsCompleted != 1 {
		t.Fatalf("stats: %+v", a.Stats())
	}
	buf := make([]byte, blockdev.PageSize)
	a.FailDisk(3) // prove the resumed rebuild left member 1 byte-correct
	for lba := int64(0); lba < 96; lba++ {
		if _, err := a.ReadPages(0, lba, 1, buf); err != nil {
			t.Fatalf("read %d: %v", lba, err)
		}
		if !bytes.Equal(buf, want[lba]) {
			t.Fatalf("lba %d wrong after resumed rebuild", lba)
		}
	}
	// Resuming onto a failed member is a no-op, not an error.
	if err := a.ResumeRebuild(3, 10); err != nil || a.RebuildActive() {
		t.Fatalf("resume onto failed member: %v active=%v", err, a.RebuildActive())
	}
}

// TestRebuildLossSkipsStagedPages: a row beyond tolerance inside the
// rebuild window takes only the pages it actually holds. lba 5's
// committed copy there is dead — a newer version, acked, sits staged in
// NVRAM — so the loss must not touch lba 5, and once the staged segment
// commits the acked version reads back byte for byte.
func TestRebuildLossSkipsStagedPages(t *testing.T) {
	a := testArray(t, 4, 256, 8)
	fillCommitted(t, a, 48)
	target, row := a.DataLocation(5)
	peer, peerRow := a.DataLocation(4)
	if peerRow != row || peer == target {
		t.Fatalf("layout: page 5 on d%d row %d, page 4 on d%d row %d", target, row, peer, peerRow)
	}
	if _, err := a.WritePages(0, 5, 1, pageOf(5, 2)); err != nil {
		t.Fatal(err)
	}
	a.FailDisk(target)
	if _, err := a.StartRebuild(0, target, blockdev.NewNullDataDevice("fresh", 256)); err != nil {
		t.Fatal(err)
	}
	a.Injector(peer).InjectBadPage(row) // the second fault on lba 5's row
	_, _, complete, stepErr := a.RebuildStep(0, 256)
	for lba := int64(100); lba < 100+a.segPages-1; lba++ { // fill lba 5's staged segment
		if _, err := a.WritePages(0, lba, 1, pageOf(lba, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if a.PendingPages() != 0 {
		t.Fatalf("%d pages still staged", a.PendingPages())
	}
	buf := make([]byte, blockdev.PageSize)
	if _, err := a.ReadPages(0, 5, 1, buf); err != nil || !bytes.Equal(buf, pageOf(5, 2)) {
		t.Fatalf("acked version of page 5 after the commit: %v", err)
	}
	if stepErr != nil || !complete {
		t.Fatalf("rebuild step: complete %v, %v", complete, stepErr)
	}
	if _, err := a.ReadPages(0, 4, 1, buf); !errors.Is(err, raid.ErrUnrecoverable) || a.Stats().LostPages != 1 {
		t.Fatalf("page 4, on the second fault: %v, %d pages lost", err, a.Stats().LostPages)
	}
}

// TestCrashReplayIdempotentWithLostPages: with pages declared lost (a
// scrub found their row doubly faulted) and others staged, crash + replay
// rebuilds the dense L2P and pending tables to the same digest twice over,
// keeps the loss loud across the crash (it is not derivable from the
// summaries, so replay must leave it alone), and an overwrite still heals
// a lost page afterwards.
func TestCrashReplayIdempotentWithLostPages(t *testing.T) {
	a := testArray(t, 4, 256, 8)
	fillCommitted(t, a, 48)
	d, row := a.DataLocation(5)
	p, _, _ := a.ParityLocation(5)
	a.Injector(d).InjectBadPage(row)
	a.Injector(p).InjectBadPage(row)
	if _, rep, err := a.Scrub(0); err != nil || len(rep.Unrecoverable) == 0 {
		t.Fatalf("scrub: %v, unrecoverable rows %v", err, rep.Unrecoverable)
	}
	lost := a.LostRows()
	if len(lost) == 0 {
		t.Fatal("no page lost")
	}
	// Two staged pages, one of them shadowing a committed copy.
	for _, lba := range []int64{7, 60} {
		if _, err := a.WritePages(0, lba, 1, pageOf(lba, 2)); err != nil {
			t.Fatal(err)
		}
	}
	if a.PendingPages() != 2 {
		t.Fatalf("%d pages pending, want 2", a.PendingPages())
	}
	digest := a.StateDigest()
	for round := 0; round < 2; round++ {
		a.CrashRebuildState()
		if err := a.CheckInvariants(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if got := a.StateDigest(); got != digest {
			t.Fatalf("round %d: digest %x, before the crash %x", round, got, digest)
		}
		if got := a.LostRows(); fmt.Sprint(got) != fmt.Sprint(lost) {
			t.Fatalf("round %d: lost pages %v, before the crash %v", round, got, lost)
		}
	}
	buf := make([]byte, blockdev.PageSize)
	if _, err := a.ReadPages(0, lost[0], 1, buf); !errors.Is(err, raid.ErrUnrecoverable) {
		t.Fatalf("read of a lost page after replay: %v", err)
	}
	if _, err := a.ReadPages(0, 60, 1, buf); err != nil || !bytes.Equal(buf, pageOf(60, 2)) {
		t.Fatalf("staged page after replay: %v", err)
	}
	if _, err := a.WritePages(0, lost[0], 1, pageOf(lost[0], 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := a.ReadPages(0, lost[0], 1, buf); err != nil || !bytes.Equal(buf, pageOf(lost[0], 3)) {
		t.Fatalf("overwritten lost page: %v", err)
	}
	if got := a.LostRows(); len(got) != len(lost)-1 {
		t.Fatalf("lost pages after the healing overwrite: %v, were %v", got, lost)
	}
}
