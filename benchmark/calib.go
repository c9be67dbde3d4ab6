package main

import (
	"math/rand"
	"sync"
	"time"
)

// The sandbox this benchmark runs on is a small VM whose speed changes with
// its neighbours: the same binary runs a fifth to a half slower for minutes
// at a time, more so the more memory-bound the work (README.md,
// "Steadiness"). No window length inside the run budget averages that out,
// so every wall-clock duration is calibrated instead: it is divided by how
// slow a fixed reference kernel ran at the same time, relative to
// refNominalUs. A calibrated microsecond is a microsecond on a machine that
// runs the kernel in exactly refNominalUs. Simulated device time and counts
// are never scaled.
const refNominalUs = 20.0

// refPool is what the kernel reads: 1 200 ascending arrays of 2 000 int64,
// 19 MB in all — like the label rows in the vector cache, too big for a core's
// own cache.
var (
	refPoolMu sync.Mutex
	refPool   [][]int64
)

func refData() [][]int64 {
	refPoolMu.Lock()
	defer refPoolMu.Unlock()
	if refPool == nil {
		rng := rand.New(rand.NewSource(1))
		for i := 0; i < 1200; i++ {
			a := make([]int64, 2000)
			v := int64(0)
			for j := range a {
				v += int64(1 + rng.Intn(8))
				a[j] = v
			}
			refPool = append(refPool, a)
		}
	}
	return refPool
}

// dropRefData lets the pool go, so that it does not count as the program's
// live heap; the next kernel builds it again.
func dropRefData() {
	refPoolMu.Lock()
	refPool = nil
	refPoolMu.Unlock()
}

// refKernel times merges of two random arrays of the pool, the shape of a
// vertex-to-vertex label join. Its speed depends on the machine alone. Each
// goroutine uses its own.
type refKernel struct {
	pool [][]int64
	rng  *rand.Rand
	sink int
	ns   []int64
}

func newRefKernel(seed int64) *refKernel {
	return &refKernel{pool: refData(), rng: rand.New(rand.NewSource(seed))}
}

// probe runs the kernel n times and keeps the timings.
func (k *refKernel) probe(n int) {
	for ; n > 0; n-- {
		x, y := k.pool[k.rng.Intn(len(k.pool))], k.pool[k.rng.Intn(len(k.pool))]
		t0 := time.Now()
		i, j := 0, 0
		for i < len(x) && j < len(y) {
			switch {
			case x[i] < y[j]:
				i++
			case x[i] > y[j]:
				j++
			default:
				k.sink++
				i++
				j++
			}
		}
		k.ns = append(k.ns, int64(time.Since(t0)))
	}
}

// take hands over the timings since the last take.
func (k *refKernel) take() []int64 {
	ns := k.ns
	k.ns = nil
	return ns
}

// speedOf is the machine's speed while ns were taken: 1 when the kernel's
// median is refNominalUs, below 1 when the machine was slower. A wall-clock
// duration is multiplied by it, a closed loop's throughput divided.
func speedOf(ns []int64) float64 {
	if len(ns) == 0 {
		return 1
	}
	return refNominalUs / usMedian(ns)
}

// calibrated runs fn with reference probes before and after and returns the
// machine's speed around it.
func calibrated(fn func()) float64 {
	k := newRefKernel(1)
	k.probe(200)
	fn()
	k.probe(200)
	return speedOf(k.take())
}
