package core

import "hash/fnv"

// StateDigest returns an I/O-free fingerprint of the engine's recovered
// metadata: frame slot states and bindings, delta records, DEZ occupancy,
// and the NVRAM staging buffer contents. The checker restores twice from
// one NVRAM snapshot and compares digests to prove metadata-log replay is
// idempotent — reads are not used for that comparison because serving a
// read mutates state (fills write the SSD).
func (k *KDD) StateDigest() uint64 {
	h := fnv.New64a()
	var w [8]byte
	put := func(v uint64) {
		w[0] = byte(v)
		w[1] = byte(v >> 8)
		w[2] = byte(v >> 16)
		w[3] = byte(v >> 24)
		w[4] = byte(v >> 32)
		w[5] = byte(v >> 40)
		w[6] = byte(v >> 48)
		w[7] = byte(v >> 56)
		h.Write(w[:])
	}
	putBool := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	for i := int32(0); int64(i) < k.frame.Pages(); i++ {
		s := k.frame.Slot(i)
		put(uint64(s.State))
		put(uint64(s.RaidLBA))
		od, ok := k.deltaOf(i)
		putBool(ok)
		if ok {
			putBool(od.staged)
			put(uint64(od.dez))
			put(uint64(od.off))
			put(uint64(od.length))
			putBool(od.raw)
		}
	}
	for slot, dp := range k.dezPages {
		if dp.valid == 0 {
			continue
		}
		put(uint64(slot))
		put(uint64(dp.valid))
		put(uint64(dp.used))
	}
	for _, sd := range k.staging.All() {
		put(uint64(sd.DazPage))
		put(uint64(sd.RaidLBA))
		put(uint64(sd.D.Len))
		putBool(sd.D.Raw)
		h.Write(sd.D.Bytes)
	}
	put(uint64(k.health))
	// Member-rebuild window: two restores from one NVRAM snapshot must
	// resume to the same watermark (or both collapse the window).
	disk, row, active := k.backend.RebuildTarget()
	putBool(active)
	put(uint64(disk))
	put(uint64(row))
	return h.Sum64()
}
