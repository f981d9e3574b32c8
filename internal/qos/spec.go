package qos

import (
	"fmt"
	"strconv"
	"strings"
)

// TenantSpec is one tenant's budget: a sustained rate, a burst
// allowance, and a weight that is its priority class (a higher weight
// demotes later on the degradation ladder).
type TenantSpec struct {
	Name     string
	RateIOPS int64 // sustained budget, requests per virtual second
	Weight   int64 // priority class (>= 1)
	Burst    int64 // token-bucket depth in requests
}

// Spec-field sanity bounds. The spec string arrives from a command-line
// flag (and the fuzzer); every numeric field feeds integer token
// arithmetic, so out-of-range values must fail the parse rather than
// overflow the bucket math.
const (
	maxTenants  = 64
	maxNameLen  = 32
	maxRateIOPS = int64(1) << 30 // ~1e9 req/s keeps token-ns in int64
	maxWeight   = int64(1) << 20
	maxBurst    = int64(1) << 30
)

// ParseTenants parses a "name:rate:weight[:burst]" comma-separated
// tenant list ("a:100:2,b:50:1"). Burst defaults to a tenth of the rate
// (at least one request). Names are restricted to [A-Za-z0-9_-] so they
// embed directly into metric labels, and duplicates are rejected.
func ParseTenants(s string) ([]TenantSpec, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil, fmt.Errorf("qos: empty tenant spec")
	}
	parts := strings.Split(s, ",")
	if len(parts) > maxTenants {
		return nil, fmt.Errorf("qos: %d tenants exceeds the %d limit", len(parts), maxTenants)
	}
	specs := make([]TenantSpec, 0, len(parts))
	seen := make(map[string]bool, len(parts))
	for i, part := range parts {
		f := strings.Split(strings.TrimSpace(part), ":")
		if len(f) < 3 || len(f) > 4 {
			return nil, fmt.Errorf("qos: tenant %d: want name:rate:weight[:burst], got %q", i, part)
		}
		name := strings.TrimSpace(f[0])
		if err := checkName(name); err != nil {
			return nil, fmt.Errorf("qos: tenant %d: %w", i, err)
		}
		if seen[name] {
			return nil, fmt.Errorf("qos: duplicate tenant %q", name)
		}
		seen[name] = true
		rate, err := parseBounded(f[1], "rate", 1, maxRateIOPS)
		if err != nil {
			return nil, fmt.Errorf("qos: tenant %q: %w", name, err)
		}
		weight, err := parseBounded(f[2], "weight", 1, maxWeight)
		if err != nil {
			return nil, fmt.Errorf("qos: tenant %q: %w", name, err)
		}
		burst := rate / 10
		if burst < 1 {
			burst = 1
		}
		if len(f) == 4 {
			burst, err = parseBounded(f[3], "burst", 1, maxBurst)
			if err != nil {
				return nil, fmt.Errorf("qos: tenant %q: %w", name, err)
			}
		}
		specs = append(specs, TenantSpec{Name: name, RateIOPS: rate, Weight: weight, Burst: burst})
	}
	return specs, nil
}

func checkName(name string) error {
	if name == "" {
		return fmt.Errorf("empty name")
	}
	if len(name) > maxNameLen {
		return fmt.Errorf("name longer than %d bytes", maxNameLen)
	}
	for _, c := range []byte(name) {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '_', c == '-':
		default:
			return fmt.Errorf("name %q: only [A-Za-z0-9_-] allowed", name)
		}
	}
	return nil
}

func parseBounded(s, field string, lo, hi int64) (int64, error) {
	v, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: %v", field, err)
	}
	if v < lo || v > hi {
		return 0, fmt.Errorf("%s %d out of range [%d, %d]", field, v, lo, hi)
	}
	return v, nil
}
