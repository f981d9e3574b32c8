package core

import (
	"fmt"

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
	return k.lowMark()
}

// IdleRows returns the rows waiting in the cleaner's idle queue, each by
// its first LBA (RowPeers(lba)[0]), in issue order, and when they were
// planned.
func (k *KDD) IdleRows() ([]int64, sim.Time) {
	var rows []int64
	for _, lba := range k.cleaner.Queued() {
		rows = append(rows, k.backend.RowPeers(lba)[0])
	}
	return rows, k.cleaner.Planned()
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
	done, ok, err := k.cleanRow(t, lba, k.backend.RowPeers(lba))
	if err == nil && !ok {
		err = fmt.Errorf("core: no Old page in the row of lba %d", lba)
	}
	return done, err
}

// CleanerHigh returns the DirtyPages mark above which a write hit runs a
// cleaning pass.
func (k *KDD) CleanerHigh() int64 { return k.highMark() }
