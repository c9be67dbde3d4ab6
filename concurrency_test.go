package ptldb

// Concurrency tests: the paper motivates PTLDB with multi-user database
// deployments ("ensures scalability, regardless of the numbers of users"),
// so concurrent read queries against one open database must be safe and
// consistent. Run with -race.

import (
	"sync"
	"testing"
)

func TestConcurrentQueries(t *testing.T) {
	tt, err := GenerateCity("Salt Lake City", 0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	db := createAndWrite(t, t.TempDir(), tt, Config{Device: "ssd", PoolPages: 512}, addPOI([]StopID{1, 2, 3, 5, 8, 13}, 4))
	defer db.Close()

	// Reference answers computed single-threaded.
	type q struct {
		s, g StopID
		t    Time
	}
	queries := make([]q, 64)
	wantArr := make([]Time, len(queries))
	wantOK := make([]bool, len(queries))
	for i := range queries {
		queries[i] = q{
			s: StopID(i % tt.NumStops()),
			g: StopID((i * 7) % tt.NumStops()),
			t: tt.MinTime() + Time(i)*60,
		}
		wantArr[i], wantOK[i], err = db.EarliestArrival(queries[i].s, queries[i].g, queries[i].t)
		if err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for round := 0; round < 10; round++ {
				i := (worker*13 + round*29) % len(queries)
				arr, ok, err := db.EarliestArrival(queries[i].s, queries[i].g, queries[i].t)
				if err != nil {
					errs <- err
					return
				}
				if ok != wantOK[i] || (ok && arr != wantArr[i]) {
					errs <- &inconsistent{i: i}
					return
				}
				if _, err := db.EAKNN("poi", queries[i].s, queries[i].t, 2); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

type inconsistent struct{ i int }

func (e *inconsistent) Error() string { return "concurrent query returned inconsistent result" }

func TestConcurrentVersionHandles(t *testing.T) {
	tt, err := GenerateCity("Austin", 0.008, 4)
	if err != nil {
		t.Fatal(err)
	}
	tt2, err := GenerateCity("Austin", 0.008, 5) // "weekend" variant
	if err != nil {
		t.Fatal(err)
	}
	db := createAndWrite(t, t.TempDir(), tt, Config{Device: "ram"}, func(dir string) error {
		return AddVersion(dir, "weekend", tt2, Config{Device: "ram"})
	})
	defer db.Close()
	weekend, err := db.Version("weekend")
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	fail := make(chan error, 4)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			h := db
			if worker%2 == 1 {
				h = weekend
			}
			for i := 0; i < 20; i++ {
				s := StopID(i % tt.NumStops())
				g := StopID((i + 3) % tt.NumStops())
				if _, _, err := h.EarliestArrival(s, g, tt.MinTime()); err != nil {
					fail <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(fail)
	for err := range fail {
		t.Fatal(err)
	}
}
