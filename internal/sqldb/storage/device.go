// Package storage implements the storage engine of the embedded SQL database
// used by PTLDB: fixed-size pages on disk, a shared LRU buffer pool (a read
// cache), and the immutable segment — rows packed back to back under a sorted
// key directory — that is every table's one stored form, alone in a file or
// back to back with others in an image.
//
// Because the PTLDB evaluation compares secondary-storage devices (paper
// Sections 4.1 vs 4.2), every physical page access is charged against a
// pluggable DeviceModel into a virtual I/O clock. Benchmarks report
// CPU time + simulated device time, reproducing the relative behaviour of
// the paper's HDD and SSD without the actual hardware.
package storage

import (
	"sync/atomic"
	"time"
)

// DeviceModel describes the latency profile of a secondary-storage device.
// A read of page p costs RandRead when p does not immediately follow the
// previously read page of the same file (a seek), and SeqRead otherwise.
type DeviceModel struct {
	Name     string
	RandRead time.Duration // random page read (seek + rotation + transfer)
	SeqRead  time.Duration // sequential page read (transfer only)
	Write    time.Duration // page write (sequential)
}

// Predefined device models. Figures approximate the paper's hardware: a
// Seagate Barracuda 7200rpm SATA3 HDD and a Crucial MX100 SATA3 SSD, with
// 8 KiB pages.
var (
	// HDD: ~8.5 ms average seek + ~4.2 ms rotational latency + transfer.
	HDD = DeviceModel{Name: "hdd", RandRead: 12 * time.Millisecond, SeqRead: 80 * time.Microsecond, Write: 100 * time.Microsecond}
	// SSD: no mechanical latency; SATA3-era random read.
	SSD = DeviceModel{Name: "ssd", RandRead: 90 * time.Microsecond, SeqRead: 30 * time.Microsecond, Write: 60 * time.Microsecond}
	// RAM charges nothing; useful for unit tests and upper-bound runs.
	RAM = DeviceModel{Name: "ram"}
)

// Clock accumulates simulated device time. It is safe for concurrent use.
type Clock struct {
	nanos atomic.Int64
}

// Charge adds d to the clock.
func (c *Clock) Charge(d time.Duration) {
	if d > 0 {
		c.nanos.Add(int64(d))
	}
}

// Elapsed returns the total simulated time charged so far.
func (c *Clock) Elapsed() time.Duration { return time.Duration(c.nanos.Load()) }

// Reset zeroes the clock.
func (c *Clock) Reset() { c.nanos.Store(0) }
