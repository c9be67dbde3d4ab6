package ttl

import (
	"runtime"
	"sync"

	"ptldb/internal/order"
	"ptldb/internal/timetable"
)

// Build constructs the TTL index for tt under the given vertex order using
// pruned time-dependent profile searches, the timetable analogue of Pruned
// Landmark Labeling: hubs are processed from most to least important, and a
// candidate journey is discarded as soon as the labels built so far already
// certify a journey that departs no earlier and arrives no later.
//
// The resulting labels are canonical for (tt, ord): they satisfy the cover
// property (every Pareto-optimal journey is witnessed by its most important
// stop) and contain no tuple whose journey is covered by more important hubs.
//
// Each per-hub search is one pass of the Connection Scan Algorithm over the
// time-sorted connections from the hub's first departure (last arrival,
// backward) on. The pass also visits the connections of stops the search
// never reaches, but passing one over is a load and a compare: cheaper than
// merging the connection lists of the reached stops in a priority queue,
// which on a generated city held about half the stops at a typical step, so
// that pruning rarely spared it any work.
//
// Build is BuildParallel with one worker.
func Build(tt *timetable.Timetable, ord order.Order) *Labels {
	return BuildParallel(tt, ord, 1)
}

// BuildParallel constructs the TTL index on the given number of workers
// using rank-batched wave parallelism, in the spirit of the parallel label
// generation of Public Transit Labeling (Delling et al. 2015): hubs are
// taken in rank order in waves; the workers run the pruned forward and
// backward searches of a whole wave against the labels committed by earlier
// waves only, and the wave's tentative tuples are then committed serially in
// rank order, re-checking each tuple against the more-important hubs of its
// own wave so that tuples they cover are cross-pruned (see commitHub).
//
// Searching against the committed labels only makes the in-search pruning
// conservative (fewer labels can only certify fewer journeys), so every
// tuple the serial build emits is also generated here; search and commit
// re-check together test exactly the label state the serial build saw at
// that hub's turn, so everything extra is filtered out again. The output is
// therefore byte-identical to Build's for every worker count and wave size
// (the determinism tests assert this, metadata included).
func BuildParallel(tt *timetable.Timetable, ord order.Order, workers int) *Labels {
	l, _ := BuildWithStats(tt, ord, workers)
	return l
}

// BuildStats counts the work of one label build, summed exactly from
// per-worker locals. The counts depend on the worker count (a wider wave
// prunes against fewer labels), which is why they are not part of Labels.
type BuildStats struct {
	// Searches is the number of profile searches run, two per hub.
	Searches int64 `json:"searches"`
	// TentativeTuples is the number of tuples those searches produced.
	TentativeTuples int64 `json:"tentative_tuples"`
	// CrossPruned is the number of tentative tuples dropped at commit because
	// a more important hub of the same wave covers them; the labels hold
	// TentativeTuples - CrossPruned tuples.
	CrossPruned int64 `json:"cross_pruned"`
	// CoverChecks is the number of cover tests, in searches and at commit.
	CoverChecks int64 `json:"cover_checks"`
	// RunsProbed is the number of hub runs those tests searched: one per
	// hub common to the two labels, until one covers.
	RunsProbed int64 `json:"runs_probed"`
}

func (s *BuildStats) add(o BuildStats) {
	s.Searches += o.Searches
	s.TentativeTuples += o.TentativeTuples
	s.CrossPruned += o.CrossPruned
	s.CoverChecks += o.CoverChecks
	s.RunsProbed += o.RunsProbed
}

// BuildWithStats is BuildParallel returning the build's work counters.
func BuildWithStats(tt *timetable.Timetable, ord order.Order, workers int) (*Labels, BuildStats) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers == 1 {
		return buildSerial(tt, ord)
	}
	return buildWaves(tt, ord, workers)
}

// buildSerial is the reference single-worker build. Even here two searches
// run at a time: the forward search of a hub reads L_out(h) and the backward
// search reads L_in(h), both write only their own scratch state, so one
// long-lived goroutine runs every forward search while the caller's
// goroutine runs the backward ones.
func buildSerial(tt *timetable.Timetable, ord order.Order) (*Labels, BuildStats) {
	c := newConstruction(tt, ord)
	fwd, bwd := newBuilder(tt, c), newBuilder(tt, c)
	hubs := make(chan timetable.StopID)
	fdone := make(chan struct{})
	go func() {
		for h := range hubs {
			fwd.forward(h)
			fdone <- struct{}{}
		}
	}()
	for _, h := range ord {
		hubs <- h
		bwd.backward(h)
		<-fdone
		// Tuples from a one-hub batch are uncovered by construction: the
		// searches checked against the full committed label set.
		for _, p := range fwd.pend {
			c.in.add(p.w, p.t)
		}
		for _, p := range bwd.pend {
			c.out.add(p.w, p.t)
		}
	}
	close(hubs)
	stats := fwd.stats
	stats.add(bwd.stats)
	return c.finish(), stats
}

// waveHubsPerWorker sizes a wave: workers × this many hubs, twice as many
// searches. A wider wave amortizes the barrier over more searches but prunes
// each of them against fewer labels. With the commit re-check down to the
// wave's own runs the optimum is flat; 2 measured best (DESIGN §6.5).
const waveHubsPerWorker = 2

// waveTask asks a worker to run one direction of one hub's profile search
// and leave the tentative tuples in *dst.
type waveTask struct {
	hub     timetable.StopID
	forward bool
	dst     *[]pendingTuple
}

// buildWaves is the rank-batched parallel build. Within a wave the workers
// only read the committed labels and write their own result slot, so the
// wave needs no locking: the task channel orders slot writes after the
// previous commit, and the WaitGroup orders the commit after all slot
// writes.
func buildWaves(tt *timetable.Timetable, ord order.Order, workers int) (*Labels, BuildStats) {
	c := newConstruction(tt, ord)
	batch := waveHubsPerWorker * workers
	if batch > len(ord) && len(ord) > 0 {
		batch = len(ord)
	}
	tasks := make(chan waveTask)
	var wg sync.WaitGroup
	builders := make([]*builder, workers)
	for i := range builders {
		b := newBuilder(tt, c)
		builders[i] = b
		go func() {
			for t := range tasks {
				if t.forward {
					b.forward(t.hub)
				} else {
					b.backward(t.hub)
				}
				*t.dst = append((*t.dst)[:0], b.pend...)
				wg.Done()
			}
		}()
	}
	// Scratch builder for the commit-time cover re-checks.
	cb := newBuilder(tt, c)
	fwdPend := make([][]pendingTuple, batch)
	bwdPend := make([][]pendingTuple, batch)
	for lo := 0; lo < len(ord); lo += batch {
		hi := lo + batch
		if hi > len(ord) {
			hi = len(ord)
		}
		wg.Add(2 * (hi - lo))
		for i := lo; i < hi; i++ {
			tasks <- waveTask{hub: ord[i], forward: true, dst: &fwdPend[i-lo]}
			tasks <- waveTask{hub: ord[i], forward: false, dst: &bwdPend[i-lo]}
		}
		wg.Wait()
		for i := lo; i < hi; i++ {
			cb.commitHub(ord[i], int32(lo), fwdPend[i-lo], bwdPend[i-lo])
		}
	}
	close(tasks)
	// The last wg.Wait ordered every worker's counter writes before these
	// reads.
	stats := cb.stats
	for _, b := range builders {
		stats.add(b.stats)
	}
	return c.finish(), stats
}

// waveTail returns the index in dir of the first run committed by the wave
// whose first hub has rank rankLo. Directories list hubs by increasing rank,
// so those runs are a suffix.
func (b *builder) waveTail(dir []hubRun, rankLo int32) int {
	i := len(dir)
	for i > 0 && b.ranks[dir[i-1].hub] >= rankLo {
		i--
	}
	return i
}

// commitHub appends hub h's tentative tuples to the labels, dropping every
// tuple covered through a more-important hub of h's own wave (the wave whose
// first hub has rank rankLo) — the cross-prune that restores canonicality.
//
// Only those hubs need testing. The cover condition is an OR over the hubs
// common to L_out(h) and L_in(w) (L_in(h) and L_out(w) backward). A hub that
// committed before the wave had its runs in both labels complete and frozen
// when the search tested the tuple against them, and the tuple survived; a
// hub less important than h has not committed. What is left are the runs at
// the tail of both directories, and with them the re-check sees exactly the
// label state the serial build saw at h's turn.
func (b *builder) commitHub(h timetable.StopID, rankLo int32, fwdPend, bwdPend []pendingTuple) {
	in, out := &b.c.in, &b.c.out
	b.indexOwn(out, h, b.waveTail(out.runs[h], rankLo))
	for _, p := range fwdPend {
		if b.coveredForward(p.w, p.t.Dep, p.t.Arr, b.waveTail(in.runs[p.w], rankLo)) {
			b.stats.CrossPruned++
		} else {
			in.add(p.w, p.t)
		}
	}
	b.releaseOwn()
	b.indexOwn(in, h, b.waveTail(in.runs[h], rankLo))
	for _, p := range bwdPend {
		if b.coveredBackward(p.w, p.t.Dep, p.t.Arr, b.waveTail(out.runs[p.w], rankLo)) {
			b.stats.CrossPruned++
		} else {
			out.add(p.w, p.t)
		}
	}
	b.releaseOwn()
}
