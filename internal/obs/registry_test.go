package obs

import (
	"strings"
	"testing"
)

func TestRegistryExposition(t *testing.T) {
	reg := NewRegistry()
	reg.SetCounter("zzz_last_total", "Sorts last.", 3)
	reg.SetGauge("aaa_ratio", "Sorts first.", 0.25)
	reg.SetCounter(`hdd_reads_total{disk="1"}`, "Reads per member disk.", 20)
	reg.SetCounter(`hdd_reads_total{disk="0"}`, "Reads per member disk.", 10)

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	want := `# HELP aaa_ratio Sorts first.
# TYPE aaa_ratio gauge
aaa_ratio 0.25
# HELP hdd_reads_total Reads per member disk.
# TYPE hdd_reads_total counter
hdd_reads_total{disk="0"} 10
hdd_reads_total{disk="1"} 20
# HELP zzz_last_total Sorts last.
# TYPE zzz_last_total counter
zzz_last_total 3
`
	if b.String() != want {
		t.Fatalf("exposition mismatch:\n got:\n%s\nwant:\n%s", b.String(), want)
	}
}

func TestRegistryDeterministicBytes(t *testing.T) {
	mk := func() string {
		reg := NewRegistry()
		// Insertion order scrambled on purpose; map iteration must not
		// leak into the output.
		reg.SetCounter("m_b_total", "b", 2)
		reg.SetGauge("m_c", "c", 1.5)
		reg.SetCounter("m_a_total", "a", 1)
		reg.SetCounter(`m_d_total{k="y"}`, "d", 4)
		reg.SetCounter(`m_d_total{k="x"}`, "d", 3)
		var b strings.Builder
		if err := reg.WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	for i := 0; i < 10; i++ {
		if mk() != mk() {
			t.Fatal("exposition not deterministic")
		}
	}
}

func TestRegistryValidate(t *testing.T) {
	reg := NewRegistry()
	reg.SetCounter("ok_total", "", 1)
	if err := reg.Validate(); err != nil {
		t.Fatal(err)
	}
	reg.SetCounter("bad_total", "", -4)
	if err := reg.Validate(); err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("want negative-counter error, got %v", err)
	}

	reg2 := NewRegistry()
	reg2.SetGauge("nanish", "", func() float64 { var z float64; return z / z }())
	if err := reg2.Validate(); err == nil {
		t.Fatal("want NaN gauge error")
	}

	reg3 := NewRegistry()
	reg3.SetCounter(`fam_total{a="1"}`, "", 1)
	reg3.SetGauge(`fam_total{a="2"}`, "", 2)
	if err := reg3.Validate(); err == nil || !strings.Contains(err.Error(), "mixes kinds") {
		t.Fatalf("want mixed-kind error, got %v", err)
	}
}

func TestRegistryAccessors(t *testing.T) {
	reg := NewRegistry()
	reg.SetCounter("c_total", "", 7)
	reg.SetGauge("g", "", 2.5)
	if v, ok := reg.Counter("c_total"); !ok || v != 7 {
		t.Fatal("counter accessor")
	}
	if v, ok := reg.Gauge("g"); !ok || v != 2.5 {
		t.Fatal("gauge accessor")
	}
	if _, ok := reg.Counter("g"); ok {
		t.Fatal("kind-mismatched accessor must miss")
	}
	if reg.Len() != 2 {
		t.Fatal("len")
	}
}
