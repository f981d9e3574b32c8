package kddcache_test

import (
	"fmt"

	kddcache "kddcache"
)

// The smallest end-to-end use: build a KDD-cached RAID-5, update a page
// twice (miss, then hit with a deferred parity update), and flush.
func Example() {
	sys, err := kddcache.New(kddcache.Options{
		Policy:     kddcache.KDD,
		CachePages: 1024,
		DiskPages:  16384,
		DataMode:   true,
	})
	if err != nil {
		panic(err)
	}
	page := make([]byte, kddcache.PageSize)
	copy(page, []byte("version 1"))
	sys.Write(100, page)
	fmt.Println("stale rows after miss:", sys.StaleParityRows())

	copy(page, []byte("version 2"))
	sys.Write(100, page)
	fmt.Println("stale rows after hit :", sys.StaleParityRows())

	sys.Flush()
	fmt.Println("stale rows after flush:", sys.StaleParityRows())
	// Output:
	// stale rows after miss: 0
	// stale rows after hit : 1
	// stale rows after flush: 0
}

// Power-failure recovery: the volatile primary map is lost; the cache is
// rebuilt from the on-SSD circular metadata log plus NVRAM buffers, and
// data written before the crash remains readable (RPO = 0).
func ExampleSystem_CrashAndRecover() {
	sys, _ := kddcache.New(kddcache.Options{
		Policy: kddcache.KDD, CachePages: 512, DiskPages: 8192, DataMode: true,
	})
	page := make([]byte, kddcache.PageSize)
	copy(page, []byte("survives the crash"))
	sys.Write(7, page)
	sys.Write(7, page) // hit: delta staged in NVRAM

	if err := sys.CrashAndRecover(); err != nil {
		panic(err)
	}
	got := make([]byte, kddcache.PageSize)
	sys.Read(7, got)
	fmt.Println(string(got[:18]))
	// Output:
	// survives the crash
}

// Comparing policies on the same workload via the experiment facade.
func ExampleExperiment() {
	res, err := kddcache.Experiment("table2", kddcache.ExperimentEnv{Scale: 0.005, Backend: "kdd"})
	if err != nil {
		panic(err)
	}
	fmt.Println(len(res.Text) > 0)
	// Output:
	// true
}
