package lsraid

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
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files under testdata/")

// Transcript geometry: five timed, byte-carrying members of 32 rows in
// segments of 4, so 64 logical pages. The fill writes every page, then
// overwrites the first half, so the script's target page X (and its row
// peer X2) sit in physical row 21, segment 5 — above the half watermark
// of a rebuild, and in a segment the collector can take.
const (
	txDisks   = 5
	txRows    = 32
	txSegRows = 4
	txX       = 21
	txX2      = 22
)

// txMember names a member by the role it plays for the target row.
type txMember int

const (
	mX  txMember = iota + 1 // holds X's committed copy
	mX2                     // holds X2's committed copy
	mP                      // holds the row's parity
)

// txCase is one fault state: members dead from the start, optionally a
// rebuild of the first of them driven to the half watermark, and a latent
// media error on the target row of one member, re-armed before every step.
type txCase struct {
	name        string
	dead        []txMember
	halfRebuilt bool
	bad         txMember // 0: none
}

type txRun struct {
	t      *testing.T
	name   string
	out    strings.Builder
	res    strings.Builder // the open section's outcome lines
	sec    string
	a      *Array
	now    sim.Time
	oracle map[int64][]byte
	ver    int
	m      [mP + 1]int // disk of each role
	row    int64       // the target row
}

// errClass names the sentinel an error wraps, so the golden does not pin
// error wording.
func errClass(err error) string {
	for _, c := range []struct {
		err  error
		name string
	}{
		{raid.ErrTooManyFailures, "ErrTooManyFailures"}, {raid.ErrUnrecoverable, "ErrUnrecoverable"},
		{raid.ErrNotDegraded, "ErrNotDegraded"}, {blockdev.ErrMedia, "ErrMedia"},
		{blockdev.ErrFailed, "ErrFailed"}, {ErrNoSpace, "ErrNoSpace"},
	} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	return "other: " + err.Error()
}

// section opens a section: the member injectors' op traces (RecordOps)
// are the transcript.
func (r *txRun) section(name string) {
	r.sec = name
	fmt.Fprintf(&r.out, "## %s\n", name)
	for i := 0; i < r.a.Disks(); i++ {
		r.a.Injector(i).RecordOps(true)
	}
}

// endSection writes each member's recorded ops of the open section, in
// issue order — which member, which row, read or write; a read the
// injector refused as failed never reaches the trace — then the
// section's outcomes.
func (r *txRun) endSection() {
	for i := 0; i < r.a.Disks(); i++ {
		inj := r.a.Injector(i)
		ops := inj.Recorded()
		inj.RecordOps(false)
		if len(ops) == 0 {
			continue
		}
		fmt.Fprintf(&r.out, "  d%d:", i)
		for _, op := range ops {
			kind := "r"
			if op.Write {
				kind = "w"
			}
			fmt.Fprintf(&r.out, " %s%d", kind, op.LBA)
			if op.Count != 1 {
				fmt.Fprintf(&r.out, "x%d", op.Count)
			}
		}
		r.out.WriteByte('\n')
	}
	r.out.WriteString(r.res.String())
	r.res.Reset()
}

// note records an operation's outcome; the completion time chains into
// the next operation's issue time.
func (r *txRun) note(done sim.Time, err error) bool {
	if err != nil {
		fmt.Fprintf(&r.res, "  -> %s\n", errClass(err))
		return false
	}
	r.now = sim.MaxTime(r.now, done)
	fmt.Fprintf(&r.res, "  -> t=%d\n", int64(r.now))
	return true
}

func txPage(lba int64, ver int) []byte {
	p := make([]byte, blockdev.PageSize)
	x := uint32(lba)*2654435761 + uint32(ver)*40503 + 1
	for i := range p {
		x = x*1664525 + 1013904223
		p[i] = byte(x >> 24)
	}
	return p
}

// known reports whether buf is what lba must hold; a page whose last
// write failed may hold either version and is not checked.
func (r *txRun) known(lba int64, buf []byte) bool {
	want, ok := r.oracle[lba]
	return !ok || want == nil || bytes.Equal(buf, want)
}

func (r *txRun) read(lba int64) {
	buf := make([]byte, blockdev.PageSize)
	done, err := r.a.ReadPages(r.now, lba, 1, buf)
	if r.note(done, err) && !r.known(lba, buf) {
		r.t.Errorf("%s, %s: read of page %d returned wrong bytes", r.name, r.sec, lba)
	}
}

// write stages the next version of every page in lbas; a whole row of
// them drains to the members.
func (r *txRun) write(lbas ...int64) {
	done := r.now
	var err error
	for _, lba := range lbas {
		r.ver++
		p := txPage(lba, r.ver)
		var c sim.Time
		c, err = r.a.WritePages(r.now, lba, 1, p)
		r.oracle[lba] = nil
		if err != nil {
			break
		}
		r.oracle[lba] = p
		done = sim.MaxTime(done, c)
	}
	r.note(done, err)
}

func (r *txRun) step(c txCase, name string, f func()) {
	if c.bad != 0 {
		r.a.Injector(r.m[c.bad]).InjectBadPage(r.row)
	}
	r.section(name)
	f()
	r.endSection()
}

func (r *txRun) script(c txCase) {
	a := r.a
	r.step(c, "read X", func() { r.read(txX) })
	r.step(c, "read X2", func() { r.read(txX2) })
	r.step(c, "scrub", func() {
		done, rep, err := a.Scrub(r.now)
		if r.note(done, err) {
			fmt.Fprintf(&r.res, "  -> %+v\n", rep)
		}
	})
	// A full row of new pages: the commit appends one row (and, with the
	// free segments at the reserve, first reclaims the two dead ones).
	r.step(c, "write 40-43", func() { r.write(40, 41, 42, 43) })
	r.step(c, "gc the target segment", func() {
		r.note(a.collect(r.now, int(r.row/txSegRows)))
	})
	r.step(c, "read X (relocated)", func() { r.read(txX) })
	if failed := a.FailedDisks(); len(failed) > 0 && !a.RebuildActive() {
		r.step(c, "start rebuild", func() {
			d := failed[0]
			r.note(a.StartRebuild(r.now, d, hdd.NewData("fresh", hdd.DefaultConfig(txRows), 99)))
		})
	}
	r.step(c, "rebuild step", func() {
		done, rows, complete, err := a.RebuildStep(r.now, 1024)
		if r.note(done, err) {
			fmt.Fprintf(&r.res, "  -> rows=%d complete=%v\n", rows, complete)
		}
	})
}

// finish reads every logical page back (unrecorded), checks the bytes of
// each page that answers, and closes the transcript with what the faults
// left behind: the unreadable pages by error class, the pages declared
// lost, the failed members, and a checksum of every member's content.
func (r *txRun) finish() {
	a, out := r.a, &r.out
	fmt.Fprintf(out, "## end\n")
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
	fmt.Fprintf(out, "  lost=%v failed=%v rebuilding=%v\n", a.LostRows(), a.FailedDisks(), a.RebuildActive())
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

// TestMemberIOTranscript pins the member I/O of the log engine's entry
// points — reads, a committed row, a GC pass, scrub and rebuild — under
// the parity engine's transcript fault states, against
// testdata/member_io.golden: per section, which member each operation
// reached and which row, then the outcome and its completion time.
func TestMemberIOTranscript(t *testing.T) {
	cases := []txCase{
		{name: "healthy"},
		{name: "data dead", dead: []txMember{mX}},
		{name: "P dead", dead: []txMember{mP}},
		{name: "two dead", dead: []txMember{mX, mX2}},
		{name: "rebuild window at half watermark", dead: []txMember{mX}, halfRebuilt: true},
		{name: "media error on the data page", bad: mX},
		{name: "media error on P", bad: mP},
		{name: "media error on a survivor under a degraded read", dead: []txMember{mX}, bad: mX2},
	}
	var got strings.Builder
	for _, c := range cases {
		var members []blockdev.Device
		for i := 0; i < txDisks; i++ {
			members = append(members, hdd.NewData(fmt.Sprintf("d%d", i), hdd.DefaultConfig(txRows), uint64(i+1)))
		}
		a, err := New(Config{ChunkPages: 4, SegRows: txSegRows, Seed: 1}, members)
		if err != nil {
			t.Fatal(err)
		}
		r := &txRun{t: t, name: c.name, a: a, oracle: map[int64][]byte{}}
		for pass, n := range []int64{a.Pages(), a.Pages() / 2} {
			for lba := int64(0); lba < n; lba++ {
				r.ver++
				p := txPage(lba, r.ver)
				done, err := a.WritePages(r.now, lba, 1, p)
				if err != nil {
					t.Fatalf("fill pass %d, page %d: %v", pass, lba, err)
				}
				r.oracle[lba] = p
				r.now = sim.MaxTime(r.now, done)
			}
		}
		r.m[mX], r.row = a.DataLocation(txX)
		r.m[mX2], _ = a.DataLocation(txX2)
		r.m[mP], _, _ = a.ParityLocation(txX)
		fmt.Fprintf(&r.out, "# %s (row %d: X on d%d, X2 on d%d, P d%d)\n", c.name, r.row, r.m[mX], r.m[mX2], r.m[mP])
		for _, m := range c.dead {
			a.FailDisk(r.m[m])
		}
		if c.halfRebuilt {
			r.section("rebuild to the half watermark")
			d := r.m[c.dead[0]]
			done, err := a.StartRebuild(r.now, d, hdd.NewData("fresh", hdd.DefaultConfig(txRows), 99))
			if err == nil {
				done, _, _, err = a.RebuildStep(done, txRows/2)
			}
			if err != nil {
				t.Fatal(err)
			}
			r.now = done
			r.endSection()
		}
		r.script(c)
		r.finish()
		got.WriteString(r.out.String())
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
		t.Fatalf("%v — run `go test ./internal/lsraid -run TestMemberIOTranscript -update` to create it", err)
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
