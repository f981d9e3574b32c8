package shard

import (
	"fmt"

	"kddcache/internal/core"
	"kddcache/internal/metalog"
	"kddcache/internal/nvram"
	"kddcache/internal/sim"
	"kddcache/internal/stats"
)

// Restore reconstructs a plane after a simulated power failure. The
// shared metadata log is recovered ONCE, replaying its pages in commit
// order, and the replay stream is then demultiplexed to the lanes by DAZ
// page range (demux), each lane rebuilding from exactly the entries
// addressing its SSD region. ctr and
// buffered come from the crashed plane's log NVRAM; stagings[i] is lane
// i's NVRAM staging buffer (nil entries mean an empty buffer). The
// member-rebuild window is re-opened once, at plane level.
//
// Restore is idempotent: rebuilding twice from one NVRAM snapshot yields
// equal StateDigests (the shard checker proves this per crash site).
func Restore(cfg Config, t sim.Time, ctr *nvram.Counters,
	buffered []metalog.Entry, stagings [Lanes]*nvram.Staging) (*Plane, sim.Time, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, t, err
	}
	p := newShell(cfg)
	if p.log, err = metalog.Restore(cfg.SSD, cfg.MetaPages, ctr, buffered); err != nil {
		return nil, t, fmt.Errorf("shard: %w", err)
	}
	p.log.SetTracer(cfg.Tracer)
	replay, done, err := p.log.Recover(t)
	if err != nil {
		return nil, t, err
	}
	laneReplay, err := p.demux(replay)
	if err != nil {
		return nil, t, err
	}
	for i := 0; i < Lanes; i++ {
		k, err := core.RestoreWithLog(cfg.laneConfig(i, p.log), p.log, laneReplay[i], stagings[i])
		if err != nil {
			return nil, t, fmt.Errorf("shard: restoring lane %d: %w", i, err)
		}
		p.lanes[i] = k
	}
	// One array, one checkpoint: the rebuild window re-opens at plane
	// level, not per lane (eight resumes would be idempotent but the
	// checkpoint rewrite must happen exactly once per restore).
	if err := ctr.ResumeRebuild(cfg.Backend); err != nil {
		return nil, t, err
	}
	p.pump = core.NewRebuildPump(cfg.Backend, p.log, p.lanes[:], new(stats.CacheStats))
	return p, done, nil
}

// demux splits a recovered replay stream by lane: every entry's DAZ page
// falls in exactly one lane's region of the cache data partition.
func (p *Plane) demux(replay []metalog.Entry) ([Lanes][]metalog.Entry, error) {
	var out [Lanes][]metalog.Entry
	for _, e := range replay {
		lane := (int64(e.DazPage) - p.cfg.MetaPages) / p.lanePages
		if int64(e.DazPage) < p.cfg.MetaPages || lane < 0 || lane >= Lanes {
			return out, fmt.Errorf("shard: recovered entry for cache page %d outside every lane", e.DazPage)
		}
		out[lane] = append(out[lane], e)
	}
	return out, nil
}
