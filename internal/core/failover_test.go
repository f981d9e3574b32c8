package core_test

import (
	"bytes"
	"testing"

	"kddcache/internal/blockdev"
	"kddcache/internal/core"
	"kddcache/internal/delta"
	"kddcache/internal/raid"
	"kddcache/internal/sim"
)

// newFailRig is newFaultRig with config overrides (breaker knobs and
// friends).
func newFailRig(t *testing.T, cachePages int64, opts ...func(*core.Config)) (*rig, *blockdev.FaultInjector) {
	t.Helper()
	var members []blockdev.Device
	for i := 0; i < 5; i++ {
		members = append(members, blockdev.NewNullDataDevice("d", 4096))
	}
	a, err := raid.New(raid.Config{Level: raid.Level5, ChunkPages: 8}, members)
	if err != nil {
		t.Fatal(err)
	}
	inner := blockdev.NewNullDataDevice("ssd", cachePages+256)
	fi := blockdev.NewFaultInjector(inner, 7)
	cfg := core.Config{
		SSD:        fi,
		Backend:    a,
		CachePages: cachePages,
		Ways:       32,
		MetaPages:  64,
		Codec:      delta.ZRLE{},
	}
	for _, o := range opts {
		o(&cfg)
	}
	k, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{
		ssd: inner, array: a, kdd: k, cfg: cfg,
		oracle: make(map[int64][]byte),
		mut:    delta.NewMutator(5, 0.25),
		rng:    sim.NewRNG(42),
	}, fi
}

// read checks one lba against the oracle through the cache.
func (r *rig) read(t *testing.T, lba int64) {
	t.Helper()
	buf := make([]byte, blockdev.PageSize)
	if _, err := r.kdd.Read(0, lba, buf); err != nil {
		t.Fatalf("read %d: %v", lba, err)
	}
	if want := r.oracle[lba]; want != nil && !bytes.Equal(buf, want) {
		t.Fatalf("lba %d: wrong data", lba)
	}
}

// populate seeds the rig with writes plus write hits, leaving staged
// deltas and stale parity behind — the state an emergency fold must
// repair.
func (r *rig) populate(t *testing.T) {
	t.Helper()
	for lba := int64(0); lba < 40; lba++ {
		r.write(t, lba)
	}
	for lba := int64(0); lba < 40; lba += 2 {
		r.write(t, lba)
	}
	if r.array.StaleRows() == 0 {
		t.Fatal("setup: no stale parity to fold")
	}
}

func TestSSDFailStopEntersBypassWithoutUserError(t *testing.T) {
	r, fi := newFailRig(t, 256)
	r.populate(t)
	fi.Fail()

	// The very next request must succeed (write goes straight to RAID).
	r.write(t, 100)
	if got := r.kdd.Health(); got != core.HealthBypass {
		t.Fatalf("health = %v, want bypass", got)
	}
	st := r.kdd.Stats()
	if st.Failovers != 1 || st.EmergencyFolds != 1 {
		t.Fatalf("failover accounting: failovers=%d folds=%d", st.Failovers, st.EmergencyFolds)
	}
	if st.FoldRMWs+st.FoldResyncs == 0 {
		t.Fatal("fold repaired no rows")
	}
	if r.array.StaleRows() != 0 {
		t.Fatalf("%d stale rows survived the emergency fold", r.array.StaleRows())
	}
	// Every read — old cached data included — is served from the RAID.
	r.verifyCache(t)
	if r.kdd.Stats().PassReads == 0 {
		t.Fatal("reads not routed through pass-through")
	}
	// Flush is a quiesced no-op; invariants hold on the dropped cache.
	if _, err := r.kdd.Flush(0); err != nil {
		t.Fatalf("flush in bypass: %v", err)
	}
	if err := r.kdd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// The folded parity is genuinely correct: degraded reconstruction.
	r.array.FailDisk(2)
	r.verifyRAID(t)
}

func TestSSDFailStopDuringCleanIsAbsorbed(t *testing.T) {
	r, fi := newFailRig(t, 256)
	r.populate(t)
	// Die on the next device op: the failure lands inside the cleaning
	// pass, which must route it into failover instead of surfacing it.
	fi.FailAfterOps = fi.Ops()
	if _, err := r.kdd.Clean(0, true); err != nil {
		t.Fatalf("clean over dying SSD surfaced %v", err)
	}
	if got := r.kdd.Health(); got != core.HealthBypass {
		t.Fatalf("health = %v, want bypass", got)
	}
	if r.array.StaleRows() != 0 {
		t.Fatal("stale parity survived the failover")
	}
	r.write(t, 7)
	r.read(t, 7)
	r.verifyRAID(t)
}

func TestBreakerTripProbeBackoffRecovery(t *testing.T) {
	r, fi := newFailRig(t, 256, func(c *core.Config) {
		c.BreakerWindow = 8
		c.BreakerThreshold = 4
		c.BreakerBackoff = 4
		c.RebuildProbation = 2
	})
	r.write(t, 1)
	// Media-error storm: every SSD read fails persistently. Each cache
	// hit heals itself from RAID but feeds the breaker one failure.
	fi.SetProfile(blockdev.FaultProfile{LatentProb: 1})
	for i := 0; i < 20 && r.kdd.Health() == core.HealthNormal; i++ {
		r.read(t, 1)
	}
	if got := r.kdd.Health(); got != core.HealthDegraded {
		t.Fatalf("health = %v, want degraded", got)
	}
	st := r.kdd.Stats()
	if st.BreakerTrips == 0 || st.Failovers == 0 {
		t.Fatalf("trip accounting: %+v", st)
	}
	// The first half-open probe runs against the still-bad device: it
	// must fail and leave the cache degraded (backoff doubles).
	for i := 0; i < 6; i++ {
		r.read(t, 1)
	}
	if r.kdd.Stats().BreakerProbes == 0 {
		t.Fatal("no probe ran")
	}
	if got := r.kdd.Health(); got != core.HealthDegraded {
		t.Fatalf("probe against bad device recovered to %v", got)
	}
	// Storm passes: clear the profile and the latent marks it left
	// (including the ones failed probes put on the metadata page).
	fi.SetProfile(blockdev.FaultProfile{})
	for p := int64(0); p < fi.Pages(); p++ {
		fi.ClearBadPage(p)
	}
	sawRebuilding := false
	for i := 0; i < 40 && r.kdd.Health() != core.HealthNormal; i++ {
		r.read(t, 1)
		if r.kdd.Health() == core.HealthRebuilding {
			sawRebuilding = true
		}
	}
	if got := r.kdd.Health(); got != core.HealthNormal {
		t.Fatalf("health = %v after the storm cleared, want normal", got)
	}
	if !sawRebuilding {
		t.Fatal("recovery skipped the rebuilding probation")
	}
	if r.kdd.Stats().BreakerProbes < 2 {
		t.Fatalf("want a failed and a successful probe, got %d", r.kdd.Stats().BreakerProbes)
	}
	// Admission genuinely resumed: a fresh write allocates a cache slot.
	allocs := r.kdd.Stats().WriteAllocs
	r.write(t, 50)
	if r.kdd.Stats().WriteAllocs == allocs {
		t.Fatal("admission did not resume after recovery")
	}
	if err := r.kdd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestReattachWithFreshDevice(t *testing.T) {
	r, fi := newFailRig(t, 256, func(c *core.Config) { c.RebuildProbation = 4 })
	r.populate(t)
	fi.Fail()
	r.write(t, 3) // → bypass
	if got := r.kdd.Health(); got != core.HealthBypass {
		t.Fatalf("health = %v, want bypass", got)
	}
	fresh := blockdev.NewNullDataDevice("ssd2", r.cfg.CachePages+256)
	if err := r.kdd.Reattach(0, fresh); err != nil {
		t.Fatal(err)
	}
	if got := r.kdd.Health(); got != core.HealthRebuilding {
		t.Fatalf("health = %v after reattach, want rebuilding", got)
	}
	// Warm back up past the probation.
	for i := int64(0); i < 8; i++ {
		r.write(t, 200+i)
	}
	if got := r.kdd.Health(); got != core.HealthNormal {
		t.Fatalf("health = %v after probation, want normal", got)
	}
	// The cache is caching again: a repeat write is a hit with a staged
	// delta, and a repeat read is a hit.
	hits := r.kdd.Stats().WriteHits
	r.write(t, 200)
	if r.kdd.Stats().WriteHits == hits {
		t.Fatal("write hit not served from the re-attached cache")
	}
	if r.kdd.Stats().Reattaches != 1 {
		t.Fatalf("reattaches = %d", r.kdd.Stats().Reattaches)
	}
	r.verifyCache(t)
	if _, err := r.kdd.Flush(0); err != nil {
		t.Fatal(err)
	}
	if r.array.StaleRows() != 0 {
		t.Fatal("stale rows after post-reattach flush")
	}
	if err := r.kdd.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	r.array.FailDisk(1)
	r.verifyRAID(t)
}

func TestReattachRejectedWhileHealthy(t *testing.T) {
	r, _ := newFailRig(t, 256)
	if err := r.kdd.Reattach(0, nil); err == nil {
		t.Fatal("reattach of a healthy cache must be rejected")
	}
}

func TestReattachTooSmallDeviceRejected(t *testing.T) {
	r, fi := newFailRig(t, 256)
	r.write(t, 1)
	fi.Fail()
	r.write(t, 2) // → bypass
	tiny := blockdev.NewNullDataDevice("tiny", 64)
	if err := r.kdd.Reattach(0, tiny); err == nil {
		t.Fatal("undersized replacement must be rejected")
	}
	if got := r.kdd.Health(); got != core.HealthBypass {
		t.Fatalf("failed reattach changed health to %v", got)
	}
}

func TestRestoreInBypassComesUpFreshAndIdempotent(t *testing.T) {
	r, fi := newFailRig(t, 256)
	r.populate(t)
	fi.Fail()
	r.write(t, 3) // → bypass; log reinitialised via NVRAM counters only
	k1, _, err := core.Restore(r.cfg, 0, r.kdd.Log().Counters(), r.kdd.Log().BufferedEntries(), r.kdd.Staging())
	if err != nil {
		t.Fatalf("restore with dead SSD: %v", err)
	}
	k2, _, err := core.Restore(r.cfg, 0, r.kdd.Log().Counters(), r.kdd.Log().BufferedEntries(), r.kdd.Staging())
	if err != nil {
		t.Fatalf("second restore: %v", err)
	}
	if d1, d2 := k1.StateDigest(), k2.StateDigest(); d1 != d2 {
		t.Fatalf("restore not idempotent: %016x vs %016x", d1, d2)
	}
	if got := k1.Health(); got != core.HealthNormal {
		t.Fatalf("restored health = %v, want normal (empty cache)", got)
	}
	// A read through the restored instance is served from the RAID even
	// though the SSD is still dead (the admission failure is absorbed).
	buf := make([]byte, blockdev.PageSize)
	if _, err := k1.Read(0, 3, buf); err != nil {
		t.Fatalf("read through restored instance: %v", err)
	}
	if !bytes.Equal(buf, r.oracle[3]) {
		t.Fatal("restored instance served wrong data")
	}
}
