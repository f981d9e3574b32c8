// Package trace defines the uniform block-trace format the simulator
// consumes ("the simulator first converts raw traces into a uniform format
// and then processes trace requests one by one according to the timestamp
// of each request", §IV-A1) and parsers for the two public trace families
// the paper evaluates: SPC (UMass OLTP "Financial") and MSR Cambridge.
package trace

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"kddcache/internal/blockdev"
	"kddcache/internal/sim"
)

// Op is the request direction.
type Op uint8

// Request directions.
const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Read {
		return "R"
	}
	return "W"
}

// Request is one I/O in the uniform format: page-addressed, 4KB pages.
// A replay holds its whole trace in memory, so the record is packed to
// 24 bytes: Time and LBA stay 64-bit (every Serve call takes them as
// such), Pages and Tenant are as wide as their producers allow, and Op
// sits in the tail padding. Every producer refuses a value that does not
// fit rather than truncating it.
type Request struct {
	Time  sim.Time // arrival time
	LBA   int64    // first page
	Pages int32    // page count (>= 1)

	// Tenant is the submitting tenant's index for QoS accounting.
	// Zero — the value every parser default and legacy trace produces —
	// is the untagged/first tenant; the uniform format round-trips it
	// as an optional fifth field.
	Tenant uint16
	Op     Op
}

// Trace is an ordered request stream.
type Trace struct {
	Name     string
	Requests []Request
}

// Stats summarises a trace the way Table I does.
type Stats struct {
	UniqueTotal int64 // distinct pages touched
	UniqueRead  int64
	UniqueWrite int64
	ReadPages   int64 // read requests in pages
	WritePages  int64
	ReadRatio   float64
	Duration    sim.Time
}

// Stats computes the Table I characteristics of the trace.
func (tr *Trace) Stats() Stats {
	read := make(map[int64]struct{})
	written := make(map[int64]struct{})
	union := make(map[int64]struct{})
	var s Stats
	for _, r := range tr.Requests {
		for i := int64(0); i < int64(r.Pages); i++ {
			p := r.LBA + i
			union[p] = struct{}{}
			if r.Op == Read {
				read[p] = struct{}{}
				s.ReadPages++
			} else {
				written[p] = struct{}{}
				s.WritePages++
			}
		}
		if r.Time > s.Duration {
			s.Duration = r.Time
		}
	}
	s.UniqueTotal = int64(len(union))
	s.UniqueRead = int64(len(read))
	s.UniqueWrite = int64(len(written))
	if tot := s.ReadPages + s.WritePages; tot > 0 {
		s.ReadRatio = float64(s.ReadPages) / float64(tot)
	}
	return s
}

// MaxLBA returns one past the highest page touched.
func (tr *Trace) MaxLBA() int64 {
	var m int64
	for _, r := range tr.Requests {
		if end := r.LBA + int64(r.Pages); end > m {
			m = end
		}
	}
	return m
}

// SortByTime orders requests by arrival (stable).
func (tr *Trace) SortByTime() {
	sort.SliceStable(tr.Requests, func(i, j int) bool {
		return tr.Requests[i].Time < tr.Requests[j].Time
	})
}

// ---------------------------------------------------------------------------
// SPC format: "ASU,LBA,Size,Opcode,Timestamp". LBA counts 512-byte
// blocks, Size is in bytes, Timestamp in seconds. Example:
// "0,20941264,8192,W,0.551706".

// ParseSPC reads an SPC-format trace. Requests are rounded outward to 4KB
// page boundaries.
func ParseSPC(name string, r io.Reader) (*Trace, error) {
	tr := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) < 5 {
			return nil, fmt.Errorf("trace: spc line %d: want 5 fields, got %d", lineNo, len(f))
		}
		lba512, err := strconv.ParseInt(strings.TrimSpace(f[1]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: spc line %d lba: %v", lineNo, err)
		}
		if lba512 < 0 || lba512 >= maxLBA512 {
			return nil, fmt.Errorf("trace: spc line %d lba %d out of range", lineNo, lba512)
		}
		size, err := strconv.ParseInt(strings.TrimSpace(f[2]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: spc line %d size: %v", lineNo, err)
		}
		if size < 1 || size > maxReqBytes {
			return nil, fmt.Errorf("trace: spc line %d size %d out of range", lineNo, size)
		}
		op, err := parseOp(f[3])
		if err != nil {
			return nil, fmt.Errorf("trace: spc line %d: %v", lineNo, err)
		}
		ts, err := strconv.ParseFloat(strings.TrimSpace(f[4]), 64)
		if err != nil {
			return nil, fmt.Errorf("trace: spc line %d time: %v", lineNo, err)
		}
		if !(ts >= 0 && ts <= maxSeconds) { // also rejects NaN
			return nil, fmt.Errorf("trace: spc line %d time %v out of range", lineNo, ts)
		}
		byteOff := lba512 * 512
		tr.Requests = append(tr.Requests, pageAlign(
			sim.Time(ts*float64(sim.Second)), op, byteOff, size))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	tr.SortByTime()
	return tr, nil
}

// ---------------------------------------------------------------------------
// MSR Cambridge format:
// "Timestamp,Hostname,DiskNumber,Type,Offset,Size,ResponseTime" with
// Timestamp in Windows 100ns ticks, Offset and Size in bytes.

// ParseMSR reads an MSR Cambridge trace.
func ParseMSR(name string, r io.Reader) (*Trace, error) {
	tr := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	var t0 int64 = -1
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) < 6 {
			return nil, fmt.Errorf("trace: msr line %d: want >=6 fields, got %d", lineNo, len(f))
		}
		ticks, err := strconv.ParseInt(strings.TrimSpace(f[0]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: msr line %d time: %v", lineNo, err)
		}
		op, err := parseOp(f[3])
		if err != nil {
			return nil, fmt.Errorf("trace: msr line %d: %v", lineNo, err)
		}
		if ticks < 0 {
			return nil, fmt.Errorf("trace: msr line %d time %d negative", lineNo, ticks)
		}
		off, err := strconv.ParseInt(strings.TrimSpace(f[4]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: msr line %d offset: %v", lineNo, err)
		}
		if off < 0 || off > maxByteOff {
			return nil, fmt.Errorf("trace: msr line %d offset %d out of range", lineNo, off)
		}
		size, err := strconv.ParseInt(strings.TrimSpace(f[5]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: msr line %d size: %v", lineNo, err)
		}
		if size < 1 || size > maxReqBytes {
			return nil, fmt.Errorf("trace: msr line %d size %d out of range", lineNo, size)
		}
		if t0 < 0 {
			t0 = ticks
		}
		diff := ticks - t0
		if diff < 0 || diff > maxTickSpan {
			return nil, fmt.Errorf("trace: msr line %d time %d outside the trace's span", lineNo, ticks)
		}
		t := sim.Time(diff * 100) // 100ns ticks -> ns
		tr.Requests = append(tr.Requests, pageAlign(t, op, off, size))
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	tr.SortByTime()
	return tr, nil
}

// Field sanity bounds. Raw traces come from untrusted files, and several
// fields feed multiplications (512-byte blocks, 100ns ticks, µs→ns) or
// page-count loops; out-of-range values must fail the parse rather than
// overflow int64 or fabricate absurd geometry.
const (
	maxLBA512   = int64(1) << 52         // byte offset stays under 1<<61
	maxByteOff  = int64(1) << 61         // MSR offsets are plain bytes
	maxReqBytes = int64(1) << 40         // 1 TiB single request
	maxSeconds  = float64(1 << 30)       // ~34 years of trace, ns stays in int64
	maxTickSpan = (int64(1) << 62) / 100 // 100ns ticks -> ns without overflow
	maxMicros   = (int64(1) << 62) / 1000
	maxPageLBA  = int64(1) << 50
	maxReqPages = 1 << 20        // 4 GiB single request in pages
	maxTenant   = math.MaxUint16 // tenant indices are small controller offsets; Request.Tenant is a uint16
)

// A maxReqBytes request at an unaligned offset spans maxReqBytes/PageSize+1
// pages; Request.Pages must hold that, and every uniform-format count.
const (
	_ = uint32(math.MaxInt32 - (maxReqBytes/blockdev.PageSize + 1))
	_ = uint32(math.MaxInt32 - maxReqPages)
)

func parseOp(s string) (Op, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "r", "read":
		return Read, nil
	case "w", "write":
		return Write, nil
	default:
		return Read, fmt.Errorf("unknown opcode %q", s)
	}
}

// pageAlign converts a byte extent into a page-addressed request. The
// callers bound size by maxReqBytes, so the page count fits Pages.
func pageAlign(t sim.Time, op Op, byteOff, size int64) Request {
	if size < 1 {
		size = 1
	}
	first := byteOff / blockdev.PageSize
	last := (byteOff + size - 1) / blockdev.PageSize
	return Request{Time: t, Op: op, LBA: first, Pages: int32(last - first + 1)}
}

// ---------------------------------------------------------------------------
// Uniform on-disk format: "time_us,op,lba,pages[,tenant]" — what
// kddsim -emit-trace writes and kddsim -replay reads back. The tenant field
// is optional and omitted when zero, so traces without tenant tagging
// stay byte-identical to the pre-QoS format.

// WriteUniform serialises the trace to the uniform CSV format.
func WriteUniform(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# uniform trace: %s\n", tr.Name); err != nil {
		return err
	}
	for _, r := range tr.Requests {
		var err error
		if r.Tenant != 0 {
			_, err = fmt.Fprintf(bw, "%d,%s,%d,%d,%d\n",
				int64(r.Time)/int64(sim.Microsecond), r.Op, r.LBA, r.Pages, r.Tenant)
		} else {
			_, err = fmt.Fprintf(bw, "%d,%s,%d,%d\n",
				int64(r.Time)/int64(sim.Microsecond), r.Op, r.LBA, r.Pages)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ParseUniform reads the uniform CSV format.
func ParseUniform(name string, r io.Reader) (*Trace, error) {
	tr := &Trace{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Split(line, ",")
		if len(f) != 4 && len(f) != 5 {
			return nil, fmt.Errorf("trace: uniform line %d: want 4 or 5 fields", lineNo)
		}
		us, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: uniform line %d time: %v", lineNo, err)
		}
		if us < 0 || us > maxMicros {
			return nil, fmt.Errorf("trace: uniform line %d time %d out of range", lineNo, us)
		}
		op, err := parseOp(f[1])
		if err != nil {
			return nil, fmt.Errorf("trace: uniform line %d: %v", lineNo, err)
		}
		lba, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("trace: uniform line %d lba: %v", lineNo, err)
		}
		if lba < 0 || lba > maxPageLBA {
			return nil, fmt.Errorf("trace: uniform line %d lba %d out of range", lineNo, lba)
		}
		pages, err := strconv.Atoi(f[3])
		if err != nil || pages < 1 || pages > maxReqPages {
			return nil, fmt.Errorf("trace: uniform line %d pages: %v (want 1..%d)", lineNo, err, maxReqPages)
		}
		tenant := 0
		if len(f) == 5 {
			tenant, err = strconv.Atoi(f[4])
			if err != nil || tenant < 0 || tenant > maxTenant {
				return nil, fmt.Errorf("trace: uniform line %d tenant: %v (want 0..%d)", lineNo, err, maxTenant)
			}
		}
		tr.Requests = append(tr.Requests, Request{
			Time: sim.Time(us) * sim.Microsecond, Op: op, LBA: lba, Pages: int32(pages), Tenant: uint16(tenant),
		})
	}
	return tr, sc.Err()
}
