package core

import "kddcache/internal/obs"

// Tracer returns the tracer threaded through this instance (nil when
// tracing is disabled). The harness uses it to wire chained layers.
func (k *KDD) Tracer() *obs.Tracer { return k.tr }

// PublishMetrics writes the engine's internal state into reg: health
// machine, cleaner gauges, NVRAM staging occupancy, and metadata-log
// counters. The policy-neutral request/traffic counters are published
// separately via obs.PublishCacheStats on Stats().
func (k *KDD) PublishMetrics(reg *obs.Registry) {
	reg.SetGauge("kdd_health_state", "Cache health state (0=Normal 1=Degraded 2=Bypass 3=Rebuilding).", float64(k.health))
	reg.SetGauge("kdd_dirty_pages", "Old+delta page population (the cleaner's gauge).", float64(k.DirtyPages()))
	reg.SetGauge("kdd_cache_pages", "Configured cache data capacity in pages.", float64(k.cfg.CachePages))
	reg.SetCounter("kdd_ops_total", "Top-level operations processed (the breaker's clock).", k.opSeq)
	reg.SetGauge("kdd_breaker_window_failures", "SSD read failures in the breaker's sliding window.", float64(k.breakerFail))

	reg.SetCounter("kdd_rebuild_steps_total", "Member-rebuild steps pumped between foreground operations.", k.st.RebuildSteps)
	reg.SetCounter("kdd_rebuild_rows_pumped_total", "Member rows reconstructed by pumped rebuild steps.", k.st.RebuildRows)
	reg.SetCounter("kdd_spare_attaches_total", "Hot spares auto-attached to failed members.", k.st.SpareAttaches)
	tokens := 0
	if k.pump != nil {
		tokens = k.pump.tokens
	}
	reg.SetGauge("kdd_rebuild_tokens", "Accumulated rebuild-row budget in the pacing bucket.", float64(tokens))

	reg.SetGauge("kdd_nvram_staged_bytes", "Bytes of deltas staged in NVRAM.", float64(k.staging.Bytes()))
	reg.SetGauge("kdd_nvram_staged_entries", "Delta entries staged in NVRAM.", float64(k.staging.Len()))

	if k.log != nil {
		ls := k.log.Stats()
		reg.SetCounter("metalog_pages_written_total", "Metadata log pages written to flash.", ls.PagesWritten)
		reg.SetCounter("metalog_entries_total", "Metadata entries appended.", ls.EntriesLogged)
		reg.SetCounter("metalog_gc_runs_total", "Metadata log GC runs.", ls.GCRuns)
		reg.SetCounter("metalog_gc_reinserted_entries_total", "Live entries reinserted by log GC.", ls.ReinsertedEntries)
		reg.SetCounter("metalog_recoveries_total", "Log recovery scans performed.", ls.Recoveries)
		reg.SetGauge("metalog_live_pages", "Live pages in the circular metadata log.", float64(k.log.LivePages()))
		reg.SetGauge("metalog_buffered_entries", "Entries buffered in NVRAM awaiting a page flush.", float64(len(k.log.BufferedEntries())))
	}
}
