package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"strings"
	"testing"
)

// TestChaosKindPinned: -chaos runs check.Chaos and prints its table;
// the SSD-loss plans' table is pinned by hash (the default run's whole
// table is internal/check's chaos.golden).
func TestChaosKindPinned(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-chaos", "-kind", "ssd-kill,ssd-reattach"}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, errb.String())
	}
	const want = "603c3e24c0e5fe088005db367fa786b126c8b37714478d69334facd1d4ccd849"
	if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want {
		t.Fatalf("table sha256 %s, want %s:\n%s", got, want, out.String())
	}
}

// TestUsageErrors: every option no run can be built from exits 2 with a
// one-line diagnostic and no table, and none of them panics.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-chaos", "-seeds", "2"}, "-seeds does not apply to -chaos"},
		{[]string{"-chaos", "-ci"}, "-ci does not apply to -chaos"},
		{[]string{"-chaos", "-backend", "lsraid"}, "-backend does not apply to -chaos"},
		{[]string{"-kind", "ssd-kill"}, "-kind needs -chaos"},
		{[]string{"-schedules", "3"}, "-schedules needs -chaos"},
		{[]string{"-chaos", "-kind", "no-such-plan"}, `no chaos plan matches kind "no-such-plan"`},
		{[]string{"-chaos", "-schedules", "-1"}, "-schedules must be >= 0"},
		{[]string{"-chaos", "-ops", "-1"}, "-ops must be >= 0"},
		{[]string{"-chaos", "-cachepages", "4"}, "below one set"},
		{[]string{"-footprint", "-3"}, "-footprint must be >= 0"},
		{[]string{"-cachepages", "8"}, "below one set"},
		{[]string{"-backend", "raid7"}, `unknown backend "raid7"`},
		{[]string{"ci"}, `unexpected argument "ci"`},
	} {
		t.Run(strings.Join(tc.args, " "), func(t *testing.T) {
			var out, errb bytes.Buffer
			code := run(tc.args, &out, &errb)
			if code != 2 || out.Len() != 0 || !strings.Contains(errb.String(), tc.want) || strings.Count(errb.String(), "\n") != 1 {
				t.Fatalf("exit %d, stdout %q, stderr %q; want exit 2 and one line with %q", code, out.String(), errb.String(), tc.want)
			}
		})
	}
}
