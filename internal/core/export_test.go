package core

import (
	"kddcache/internal/cache"
	"kddcache/internal/sim"
)

// CleanerBatch is how many LRU victims one cleaner batch takes.
const CleanerBatch = cleanerBatch

// CleanerLow returns the DirtyPages mark a cleaning pass stops at (0 when
// forced).
func (k *KDD) CleanerLow(force bool) int64 {
	if force {
		return 0
	}
	return int64(lowWater * float64(k.frame.Pages()))
}

// CleanerPlan returns the rows the next cleaner batch would repair, each
// by its first LBA (RowPeers(lba)[0]), in issue order. It issues nothing
// and leaves the engine as it was.
func (k *KDD) CleanerPlan(force bool) []int64 {
	plan := k.planBatch(k.frame.OldestSlots(cache.Old, cleanerBatch), force, k.CleanerLow(force))
	rows := make([]int64, 0, len(plan))
	for _, r := range plan {
		rows = append(rows, r.row)
	}
	return rows
}

// RepairRow repairs the parity row of the Old slot victim and reclaims its
// Old peers, as one row of a cleaner pass does.
func (k *KDD) RepairRow(t sim.Time, victim int32) (sim.Time, error) {
	lba := k.frame.Slot(victim).RaidLBA
	return k.cleanRow(t, lba, k.backend.RowPeers(lba))
}

// CleanerHigh returns the DirtyPages mark above which a write hit runs a
// cleaning pass.
func (k *KDD) CleanerHigh() int64 {
	return int64(highWater * float64(k.frame.Pages()))
}
