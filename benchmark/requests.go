package main

import (
	"math/rand"

	"ptldb/internal/serve"
	"ptldb/internal/timetable"
)

// kind is one of the paper's seven query types.
type kind uint8

const (
	kEA kind = iota
	kLD
	kSD
	kEAKNN
	kLDKNN
	kEAOTM
	kLDOTM
	numKinds
)

var kindNames = [numKinds]string{"ea", "ld", "sd", "eaknn", "ldknn", "eaotm", "ldotm"}

// class groups the kinds the way the metrics do: vertex-to-vertex, kNN and
// one-to-many.
type class uint8

const (
	cV2V class = iota
	cKNN
	cOTM
	numClasses
)

var classNames = [numClasses]string{"v2v", "knn", "otm"}

func (k kind) class() class {
	switch k {
	case kEAKNN, kLDKNN:
		return cKNN
	case kEAOTM, kLDOTM:
		return cOTM
	}
	return cV2V
}

const (
	// targetSet names the one target set every dataset carries (density 0.1,
	// kmax 4); kNN requests ask for all four neighbours.
	targetSet = "bench"
	knnK      = 4
)

// request is one generated query. City indexes the workload's datasets.
type request struct {
	Kind     kind
	City     uint8
	From, To timetable.StopID
	T, TEnd  timetable.Time
}

// path renders the request's URL path on a single-database server.
func (r request) path() string {
	name := kindNames[r.Kind]
	switch r.Kind {
	case kEA, kLD:
		return serve.V2VPath(name, r.From, r.To, r.T)
	case kSD:
		return serve.SDPath(r.From, r.To, r.T, r.TEnd)
	case kEAKNN, kLDKNN:
		return serve.KNNPath(name, targetSet, r.From, r.T, knnK)
	}
	return serve.OTMPath(name, targetSet, r.From, r.T)
}

// cityInfo is what request generation needs to know about one dataset.
type cityInfo struct {
	stops int
	// sources are the stops kNN and one-to-many requests start from: every
	// stop outside the target set, so the CSA oracle and the label tables
	// agree on what "reaching a target" means.
	sources []timetable.StopID
	// hot are the departure-board stations of the skewed mix.
	hot           []timetable.StopID
	minTime, span timetable.Time
}

// ldDeadlines is how many distinct deadlines a request list's LD-kNN and
// LD one-to-many requests share. The CSA oracle answers those with one
// backward scan per target and deadline, whatever the query stop, so a small
// seeded pool keeps a hundred checks per kind affordable.
const ldDeadlines = 8

// timeSlots is how many equal slots a quarter of the timetable span is cut
// into when times are drawn.
const timeSlots = 48

// cycle hands out 0..n-1 in a seeded order and reshuffles when all are used.
// Stops, time slots and deadlines are all drawn through one: which stop a
// request starts from and which hour it asks about decide most of its cost,
// so every list uses each equally often, and two seeds differ in order and
// pairing, not in how heavy their keys happen to be.
type cycle struct {
	rng  *rand.Rand
	perm []int
	next int
}

func newCycle(rng *rand.Rand, n int) *cycle {
	c := &cycle{rng: rng, perm: make([]int, n)}
	for i := range c.perm {
		c.perm[i] = i
	}
	return c
}

func (c *cycle) draw() int {
	if c.next == 0 {
		c.rng.Shuffle(len(c.perm), func(i, j int) { c.perm[i], c.perm[j] = c.perm[j], c.perm[i] })
	}
	v := c.perm[c.next]
	c.next = (c.next + 1) % len(c.perm)
	return v
}

// drawer makes requests with random keys on one city. Each kind has its own
// cycles.
type drawer struct {
	c    cityInfo
	city uint8
	rng  *rand.Rand
	// deadlines is the pool the LD set queries take their deadline from: one
	// instant in each of ldDeadlines equal slots of the last quarter.
	deadlines          []timetable.Time
	from, slot, picked [numKinds]*cycle
}

func newDrawer(rng *rand.Rand, c cityInfo, city uint8) *drawer {
	d := &drawer{c: c, city: city, rng: rng}
	for i := 0; i < ldDeadlines; i++ {
		d.deadlines = append(d.deadlines, c.minTime+c.span-d.within(i, ldDeadlines))
	}
	for k := kind(0); k < numKinds; k++ {
		n := c.stops
		if k.class() != cV2V {
			n = len(c.sources)
		}
		d.from[k], d.slot[k], d.picked[k] = newCycle(rng, n), newCycle(rng, timeSlots), newCycle(rng, ldDeadlines)
	}
	return d
}

// within is a random offset inside slot i of n equal slots of a quarter span.
func (d *drawer) within(i, n int) timetable.Time {
	quarter := float64(d.c.span) / 4
	return timetable.Time((float64(i) + d.rng.Float64()) * quarter / float64(n))
}

// The paper's §4 protocol: EA and SD start times come from the first quarter
// of the timetable span, LD and SD end times from the last quarter.
func (d *drawer) early(k kind) timetable.Time {
	return d.c.minTime + d.within(d.slot[k].draw(), timeSlots)
}

func (d *drawer) late(k kind) timetable.Time {
	return d.c.minTime + d.c.span - d.within(d.slot[k].draw(), timeSlots)
}

// draw makes one request of kind k.
func (d *drawer) draw(k kind) request {
	r := request{Kind: k, City: d.city}
	switch k {
	case kEAKNN, kEAOTM:
		r.From, r.T = d.c.sources[d.from[k].draw()], d.early(k)
		return r
	case kLDKNN, kLDOTM:
		r.From, r.T = d.c.sources[d.from[k].draw()], d.deadlines[d.picked[k].draw()]
		return r
	}
	r.From = timetable.StopID(d.from[k].draw())
	r.To = timetable.StopID(d.rng.Intn(d.c.stops - 1))
	if r.To >= r.From {
		r.To++
	}
	switch k {
	case kEA:
		r.T = d.early(k)
	case kLD:
		r.T = d.late(k)
	default:
		r.T, r.TEnd = d.early(k), d.late(k)
	}
	return r
}

// uniformPattern is the default mix by count: v2v 60 % (EA, LD, SD 20 %
// each), kNN 20 %, one-to-many 20 %.
var uniformPattern = [10]kind{kEA, kLD, kSD, kEAKNN, kEAOTM, kEA, kLD, kSD, kLDKNN, kLDOTM}

// uniformRequests draws n requests on one city with uniformly random keys.
func uniformRequests(seed int64, c cityInfo, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	d := newDrawer(rng, c, 0)
	out := make([]request, n)
	for i := range out {
		out[i] = d.draw(uniformPattern[i%len(uniformPattern)])
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// boardPattern is the skewed mix: 80 % departure boards, 20 % v2v tail.
var boardPattern = [10]kind{kEAOTM, kEAKNN, kEAOTM, kEAKNN, kEA, kEAOTM, kEAKNN, kEAOTM, kEAKNN, kLD}

// boardRequests draws n requests over the cities (the first gets 70 %):
// departure boards from the hot stations with the time floored to the
// minute, and a uniform v2v tail that also cycles through SD.
func boardRequests(seed int64, cities []cityInfo, n int) []request {
	rng := rand.New(rand.NewSource(seed))
	drawers := make([]*drawer, len(cities))
	for i, c := range cities {
		drawers[i] = newDrawer(rng, c, uint8(i))
	}
	out := make([]request, n)
	for i := range out {
		city := uint8(0)
		if len(cities) > 1 && rng.Float64() >= 0.7 {
			city = uint8(1 + rng.Intn(len(cities)-1))
		}
		d := drawers[city]
		k := boardPattern[i%len(boardPattern)]
		if k.class() == cV2V {
			if i%30 >= 20 {
				k = kSD
			}
			out[i] = d.draw(k)
			continue
		}
		t := d.early(k)
		out[i] = request{Kind: k, City: city, From: d.c.hot[rng.Intn(len(d.c.hot))], T: t - t%60}
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
