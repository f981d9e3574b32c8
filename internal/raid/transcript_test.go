package raid

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/hdd"
	"kddcache/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// Transcript geometry: 8 rows per member in chunks of 4, so two stripes
// (two parity rotations) and 32 logical pages on both RAID-5 x 5 and
// RAID-6 x 6. lba = stripe*16 + dataIdx*4 + pageInChunk; row =
// stripe*4 + pageInChunk.
const (
	txRows  = 8
	txChunk = 4
	txX     = 21 // the script's target page: stripe 1, data index 1, row 5
	txX2    = 25 // its row peer at data index 2
)

// transcript collects the member I/O of one case, section by section.
type transcript struct {
	out  strings.Builder
	on   bool
	r, w map[string]int // member reads / writes per section
	sec  string
}

func (tx *transcript) section(name string) {
	tx.sec = name
	fmt.Fprintf(&tx.out, "## %s\n", name)
}

func (tx *transcript) io(op string, disk int, row int64, count int, t sim.Time) {
	if !tx.on {
		return
	}
	if op == "r" {
		tx.r[tx.sec]++
	} else {
		tx.w[tx.sec]++
	}
	fmt.Fprintf(&tx.out, "  %s d%d row=%d t=%d", op, disk, row, int64(t))
	if count != 1 {
		fmt.Fprintf(&tx.out, " n=%d", count)
	}
	tx.out.WriteByte('\n')
}

// recDev is a timed, byte-carrying member that logs every operation
// reaching it. It sits under the array's FaultInjector, so a read the
// injector fails never arrives here; those show in the media-error
// counters the transcript ends with.
type recDev struct {
	*hdd.Disk
	disk int
	tx   *transcript
}

func (d *recDev) ReadPages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	d.tx.io("r", d.disk, lba, count, t)
	return d.Disk.ReadPages(t, lba, count, buf)
}

func (d *recDev) WritePages(t sim.Time, lba int64, count int, buf []byte) (sim.Time, error) {
	d.tx.io("w", d.disk, lba, count, t)
	return d.Disk.WritePages(t, lba, count, buf)
}

func newRecDev(tx *transcript, name string, disk int, seed uint64) *recDev {
	return &recDev{Disk: hdd.NewData(name, hdd.DefaultConfig(txRows), seed), disk: disk, tx: tx}
}

// txPage is the content of version ver of lba: an LCG stream, so parity
// and GF(2^8) products see every byte value.
func txPage(lba int64, ver int) []byte {
	p := make([]byte, blockdev.PageSize)
	x := uint32(lba)*2654435761 + uint32(ver)*40503 + 1
	for i := range p {
		x = x*1664525 + 1013904223
		p[i] = byte(x >> 24)
	}
	return p
}

// errClass names the sentinel an error wraps, so the golden does not pin
// error wording.
func errClass(err error) string {
	for _, c := range []struct {
		err  error
		name string
	}{
		{ErrTooManyFailures, "ErrTooManyFailures"}, {ErrStaleParity, "ErrStaleParity"},
		{ErrUnrecoverable, "ErrUnrecoverable"}, {ErrNeedResync, "ErrNeedResync"},
		{ErrNotDegraded, "ErrNotDegraded"}, {blockdev.ErrMedia, "ErrMedia"},
		{blockdev.ErrFailed, "ErrFailed"},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "other: " + err.Error()
}

// txMember names a member by the role it plays for the script's target
// row; a run resolves it to a disk index (txRun.m).
type txMember int

const (
	mX  txMember = iota + 1 // holds X
	mX2                     // holds X2
	mP                      // holds the row's P
	mQ                      // holds the row's Q (RAID-6)
)

// txCase is one fault state the script runs under: members dead from the
// start, optionally a rebuild of the first of them driven to the half
// watermark, and a latent media error on the target row of one member,
// re-armed before every step so each operation meets it afresh even
// after an earlier one healed it.
type txCase struct {
	name        string
	dead        []txMember
	halfRebuilt bool
	bad         txMember // 0: none
}

type txRun struct {
	t      *testing.T
	name   string
	tx     *transcript
	a      *Array
	now    sim.Time
	oracle map[int64][]byte
	ver    int
	m      [mQ + 1]int // disk of each txMember (mQ: -1 on RAID-5)
}

// note records an operation's outcome; the completion time chains into
// the next operation's issue time.
func (r *txRun) note(done sim.Time, err error) bool {
	if err != nil {
		fmt.Fprintf(&r.tx.out, "  -> %s\n", errClass(err))
		return false
	}
	r.now = sim.MaxTime(r.now, done)
	return true
}

func (r *txRun) next(lba int64) []byte {
	r.ver++
	return txPage(lba, r.ver)
}

// known reports whether buf is what lba must hold; a page whose last
// write failed may hold either version and is not checked.
func (r *txRun) known(lba int64, buf []byte) bool {
	return r.oracle[lba] == nil || bytes.Equal(buf, r.oracle[lba])
}

func (r *txRun) read(lba int64) {
	buf := make([]byte, blockdev.PageSize)
	done, err := r.a.ReadPages(r.now, lba, 1, buf)
	if r.note(done, err) && !r.known(lba, buf) {
		r.t.Errorf("%s, %s: read of page %d returned wrong bytes", r.name, r.tx.sec, lba)
	}
}

func (r *txRun) write(lba int64) {
	p := r.next(lba)
	done, err := r.a.WritePages(r.now, lba, 1, p)
	r.oracle[lba] = nil
	if r.note(done, err) {
		r.oracle[lba] = p
	}
}

// wnp writes lba without parity and returns the delta (old XOR new) a
// later parity repair folds in; deferred is false when the write failed
// or the array fell back to an immediate-parity write (a missing member,
// an open rebuild window), which leaves the delta obsolete.
func (r *txRun) wnp(lba int64) (delta []byte, deferred bool) {
	p := r.next(lba)
	before := r.a.Stats().NoParityWr
	done, err := r.a.WriteNoParity(r.now, lba, 1, p)
	if !r.note(done, err) {
		return make([]byte, blockdev.PageSize), false
	}
	delta = mkDelta(r.oracle[lba], p)
	r.oracle[lba] = p
	return delta, r.a.Stats().NoParityWr > before
}

func (r *txRun) step(c txCase, name string, f func()) {
	if c.bad != 0 {
		r.a.Injector(r.m[c.bad]).InjectBadPage(5) // the row of X
	}
	r.tx.section(name)
	f()
}

func (r *txRun) script(c txCase) {
	a := r.a
	r.step(c, "read X", func() { r.read(txX) })
	r.step(c, "write X", func() { r.write(txX) })

	var d1, d2 []byte
	r.step(c, "wnp X", func() { d1, _ = r.wnp(txX) })
	r.step(c, "delta X", func() {
		r.note(a.ParityUpdateDelta(r.now, []int64{txX}, [][]byte{d1}))
	})
	r.step(c, "wnp X,X2", func() { d1, _ = r.wnp(txX); d2, _ = r.wnp(txX2) })
	r.step(c, "delta X,X2", func() {
		r.note(a.ParityUpdateDelta(r.now, []int64{txX, txX2}, [][]byte{d1, d2}))
	})

	// Rows 1-3 share stripe 0's P disk (one run of three rows); rows 5 and
	// 7 sit on stripe 1's. The batch, like the parity-log policy that
	// calls it, takes every fix to name a stale row: unlike the single-row
	// call it does not drop an obsolete delta.
	var fixes []RowFix
	r.step(c, "wnp batch", func() {
		for _, lba := range []int64{1, 6, 11, txX, 31} {
			if d, deferred := r.wnp(lba); deferred {
				fixes = append(fixes, RowFix{LBAs: []int64{lba}, Deltas: [][]byte{d}})
			}
		}
	})
	r.step(c, "batch", func() { r.note(a.ParityUpdateDeltaBatch(r.now, fixes)) })

	r.step(c, "wnp X (reconstruct)", func() { r.wnp(txX) })
	r.step(c, "reconstruct X", func() {
		var row [][]byte
		for _, lba := range a.RowPeers(txX) {
			row = append(row, r.oracle[lba])
		}
		r.note(a.ParityUpdateReconstruct(r.now, txX, row))
	})

	for _, first := range []int64{2, 16} {
		r.step(c, fmt.Sprintf("writerow %d", first), func() {
			var buf []byte
			peers := a.RowPeers(first)
			pages := make([][]byte, len(peers))
			for i, lba := range peers {
				pages[i] = r.next(lba)
				buf = append(buf, pages[i]...)
			}
			done, err := a.WriteRow(r.now, first, buf)
			if r.note(done, err) {
				for i, lba := range peers {
					r.oracle[lba] = pages[i]
				}
			}
		})
	}

	r.step(c, "wnp 27", func() { r.wnp(27) })
	r.step(c, "resyncrow 27", func() { r.note(a.ResyncRow(r.now, 27)) })

	// rereadParity, current-row arm: the RMW's parity read hits a latent
	// page on a row whose parity is current (stripe 0, then stripe 1).
	for _, lba := range []int64{7, 23} {
		r.step(c, fmt.Sprintf("bad P; write %d", lba), func() {
			pd, _, row := a.ParityLocation(lba)
			a.Injector(pd).InjectBadPage(row)
			r.write(lba)
		})
	}
	// rereadParity, stale-row arm: the same on a row left stale by a
	// write-without-parity to a peer.
	r.step(c, "wnp 18; bad P; write 22", func() {
		r.wnp(18)
		pd, _, row := a.ParityLocation(22)
		a.Injector(pd).InjectBadPage(row)
		r.write(22)
	})

	r.step(c, "scrub", func() {
		done, rep, err := a.Scrub(r.now)
		if r.note(done, err) {
			fmt.Fprintf(&r.tx.out, "  -> %+v\n", rep)
		}
	})

	if failed := a.FailedDisks(); len(failed) > 0 && !a.RebuildActive() {
		r.step(c, "start rebuild", func() {
			d := failed[0]
			r.note(a.StartRebuild(r.now, d, newRecDev(r.tx, "fresh", d, 99)))
		})
	}
	r.step(c, "rebuild step", func() {
		done, rows, complete, err := a.RebuildStep(r.now, 1024)
		if r.note(done, err) {
			fmt.Fprintf(&r.tx.out, "  -> rows=%d complete=%v\n", rows, complete)
		}
	})
}

// finish reads every logical page back (unrecorded), checks the bytes
// of each page that answers, and closes the transcript with the
// counters and a checksum of every member's content, so the golden pins
// the bytes the parity paths wrote as well as the I/O they issued.
func (r *txRun) finish() {
	a, out := r.a, &r.tx.out
	r.tx.on = false
	r.tx.section("end")
	fails := map[string]int{}
	buf := make([]byte, blockdev.PageSize)
	for lba := int64(0); lba < a.Pages(); lba++ {
		if _, err := a.ReadPages(r.now, lba, 1, buf); err != nil {
			fails[errClass(err)]++
		} else if !r.known(lba, buf) {
			r.t.Errorf("%s: final read of page %d returned wrong bytes", r.name, lba)
		}
	}
	fmt.Fprintf(out, "  unreadable: %v\n", fails)
	fmt.Fprintf(out, "  stale=%d lost=%v failed=%v\n", a.StaleRows(), a.LostRows(), a.FailedDisks())
	fmt.Fprintf(out, "  stats: %+v\n", a.Stats())
	fmt.Fprint(out, "  injector media errors:")
	for i := 0; i < a.Disks(); i++ {
		fmt.Fprintf(out, " d%d=%d", i, a.Injector(i).MediaErrors())
	}
	fmt.Fprint(out, "\n  member crc32:")
	for i := 0; i < a.Disks(); i++ {
		h := crc32.NewIEEE()
		st := a.Member(i).(blockdev.Storer).Store()
		for row := int64(0); row < txRows; row++ {
			st.ReadPage(row, buf)
			h.Write(buf)
		}
		fmt.Fprintf(out, " d%d=%08x", i, h.Sum32())
	}
	out.WriteByte('\n')
}

func txCases(level Level) []txCase {
	cases := []txCase{
		{name: "healthy"},
		{name: "data dead", dead: []txMember{mX}},
		{name: "P dead", dead: []txMember{mP}},
		{name: "two dead", dead: []txMember{mX, mX2}},
		{name: "rebuild window at half watermark", dead: []txMember{mX}, halfRebuilt: true},
		{name: "media error on the data page", bad: mX},
		{name: "media error on P", bad: mP},
		{name: "media error on a survivor under a degraded read", dead: []txMember{mX}, bad: mX2},
		{name: "media error on the old copy under a parity-only-degraded write", dead: []txMember{mP}, bad: mX},
	}
	if level == Level6 {
		cases = append(cases, txCase{name: "Q dead", dead: []txMember{mQ}})
	}
	return cases
}

// TestMemberIOTranscript pins the member I/O of every array entry point —
// which member, which row, issued when, in what order — together with
// the final counters and member bytes, under each fault state, against
// testdata/member_io.golden; and checks the fault-free rows against the
// textbook member-I/O counts (Thomasian, arXiv 2306.08763).
func TestMemberIOTranscript(t *testing.T) {
	var got strings.Builder
	for _, g := range []struct {
		level Level
		disks int
	}{{Level5, 5}, {Level6, 6}} {
		for _, c := range txCases(g.level) {
			tx := &transcript{r: map[string]int{}, w: map[string]int{}}
			var members []blockdev.Device
			for i := 0; i < g.disks; i++ {
				members = append(members, newRecDev(tx, fmt.Sprintf("d%d", i), i, uint64(i+1)))
			}
			a, err := New(Config{Level: g.level, ChunkPages: txChunk}, members)
			if err != nil {
				t.Fatal(err)
			}
			r := &txRun{t: t, tx: tx, a: a, oracle: map[int64][]byte{}}
			for lba := int64(0); lba < a.Pages(); lba++ {
				r.write(lba)
			}
			r.m[mX], _ = a.DataLocation(txX)
			r.m[mX2], _ = a.DataLocation(txX2)
			r.m[mP], r.m[mQ], _ = a.ParityLocation(txX)
			r.name = fmt.Sprintf("%v x %d, %s", g.level, g.disks, c.name)
			fmt.Fprintf(&tx.out, "# %s (X on d%d, X2 on d%d, P d%d, Q d%d)\n", r.name, r.m[mX], r.m[mX2], r.m[mP], r.m[mQ])
			tx.on = true // the fill above is not part of the transcript
			for _, m := range c.dead {
				a.FailDisk(r.m[m])
			}
			if c.halfRebuilt {
				tx.section("rebuild to the half watermark")
				d := r.m[c.dead[0]]
				done, err := a.StartRebuild(r.now, d, newRecDev(tx, "fresh", d, 99))
				if err == nil {
					done, _, _, err = a.RebuildStep(done, txRows/2)
				}
				if err != nil {
					t.Fatal(err)
				}
				r.now = done
			}
			r.script(c)
			r.finish()
			got.WriteString(tx.out.String())
			checkClosedForms(t, g.level, g.disks, c.name, tx)
		}
	}

	golden := filepath.Join("testdata", "member_io.golden")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v — run `go test ./internal/raid -run TestMemberIOTranscript -update` to create it", err)
	}
	if got.String() != string(want) {
		gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("member I/O transcript differs from %s at line %d (-update regenerates it after an intended change):\n got: %s\nwant: %s",
					golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("member I/O transcript differs from %s in length: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// checkClosedForms asserts the member-I/O counts of the fault-free
// sections: N members, np parity members, dc = N - np data chunks.
func checkClosedForms(t *testing.T, level Level, n int, state string, tx *transcript) {
	np := level.parityDisks()
	dc := n - np
	type rw struct{ r, w int }
	var want map[string]rw
	switch state {
	case "healthy":
		want = map[string]rw{
			"read X":              {1, 0},           // healthy read
			"write X":             {1 + np, 1 + np}, // RMW: 2r+2w / 3r+3w
			"wnp X":               {0, 1},           // write without parity
			"delta X":             {np, np},         // delta repair, one page
			"wnp X,X2":            {0, 2},
			"delta X,X2":          {np, np}, // delta repair, two pages of a row
			"wnp X (reconstruct)": {0, 1},
			"reconstruct X":       {0, np},         // reconstruct-write from cached data
			"writerow 2":          {0, n},          // full-row write
			"writerow 16":         {0, n},          //
			"scrub":               {txRows * n, 0}, // clean scrub: every member, no write
			"rebuild step":        {0, 0},          // nothing to rebuild
			"resyncrow 27":        {dc, np},        // reconstruct-write from the members
			"wnp batch":           {0, 5},
			// The batch moves each P disk's pages in consecutive runs (rows
			// 1-3 are one run, rows 5 and 7 one each) and each Q page alone.
			"batch": {3 + (np-1)*5, 3 + (np-1)*5},
		}
	case "data dead":
		want = map[string]rw{
			"read X":  {n - 1, 0},   // degraded read: every survivor once
			"write X": {dc - 1, np}, // data-missing degraded write
		}
	case "rebuild window at half watermark":
		want = map[string]rw{
			"rebuild to the half watermark": {txRows / 2 * (n - 1), txRows / 2}, // rebuild row: N-1 r + 1 w
		}
	}
	for sec, w := range want {
		if tx.r[sec] != w.r || tx.w[sec] != w.w {
			t.Errorf("%v x %d, %s, %q: %dr+%dw, closed form %dr+%dw", level, n, state, sec, tx.r[sec], tx.w[sec], w.r, w.w)
		}
	}
}
