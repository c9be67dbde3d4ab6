package sqldb_test

// crash_test.go stops the facade's four writers at every file-system step
// they take, as a crash there would: the directory a crash leaves must open
// as the database before the call or the one after it, and the call run again
// on it must succeed. One rename of one file commits a writer, so no step
// leaves anything in between.

import (
	"bytes"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ptldb"
	"ptldb/internal/csa"
	"ptldb/internal/sqldb"
	"ptldb/internal/timetable"
)

// copyDir copies the files of dir, if it exists, into a new directory at to.
func copyDir(t *testing.T, dir, to string) {
	t.Helper()
	if err := os.MkdirAll(to, 0o755); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if errors.Is(err, fs.ErrNotExist) {
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// readImage returns the image of dir, nil when dir has none.
func readImage(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, sqldb.ImageName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestCrashAtEveryStep runs Create and the directory writers AddTargetSet,
// AddVersion and BuildPathTables on one directory, missing at first, one
// table at a time, and copies the directory after every file-system step
// each takes — the directory made, a segment appended to image.seg.tmp, that
// file synced, renamed over the image, the directory synced. Every copy must
// hold the image from before the call or the one after it, and nothing but
// image.seg.tmp beside it, and open as that database: none before Create, and
// then the writers' data up to the call, answering what CSA answers, and none
// of the call's unless it is the image after it. Both images must occur among
// each call's copies. A copy holding the image after the call holds it alone;
// on one holding the image before it, the same call run again — over the
// temporary image the crash left, if any — must succeed and leave the image
// alone, byte for byte the one the call wrote uncrashed, which opens with the
// call's data too, answering what CSA answers.
func TestCrashAtEveryStep(t *testing.T) {
	tt, err := ptldb.GenerateCity("Austin", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	weekend, err := ptldb.GenerateCity("Austin", 0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	if weekend.NumStops() != tt.NumStops() {
		t.Fatalf("the versions have %d and %d stops", tt.NumStops(), weekend.NumStops())
	}
	n := tt.NumStops()
	targets := []ptldb.StopID{1, 3, 5, 8, 13, 21}
	// eaMatchesCSA checks EA on h, a handle of net's timetable, against CSA
	// for a spread of stop pairs and times.
	eaMatchesCSA := func(t *testing.T, what string, h *ptldb.DB, net *ptldb.Network) {
		t.Helper()
		for i := 0; i < 10; i++ {
			s, g := ptldb.StopID(i*7%n), ptldb.StopID((i*13+2)%n)
			when := net.MinTime() + ptldb.Time(i)*net.Span()/10
			got, ok, err := h.EarliestArrival(s, g, when)
			if err != nil {
				t.Fatal(err)
			}
			if want := csa.EarliestArrival(net, s, g, when); ok != (want != timetable.Infinity) || (ok && got != want) {
				t.Errorf("%s: EA(%d, %d, %d) = %d, %v; the oracle has %d", what, s, g, when, got, ok, want)
			}
		}
	}

	dir := filepath.Join(t.TempDir(), "db")
	states := t.TempDir()
	var steps []string
	recording := true // false while a call runs again on a copy
	defer sqldb.SetAfterStep(func(step string) {
		if recording {
			copyDir(t, dir, filepath.Join(states, strconv.Itoa(len(steps))))
			steps = append(steps, step)
		}
	})()
	cfg := ptldb.Config{Device: "ram", BuildWorkers: 1}
	writers := []struct {
		name  string
		write func(dir string) error
		has   func(h *ptldb.DB) bool
		check func(t *testing.T, what string, h *ptldb.DB)
	}{
		{"Create", func(dir string) error {
			db, err := ptldb.Create(dir, tt, cfg)
			if err != nil {
				return err
			}
			return db.Close()
		},
			func(*ptldb.DB) bool { return true },
			func(t *testing.T, what string, h *ptldb.DB) { eaMatchesCSA(t, what, h, tt) }},
		{"AddTargetSet", func(dir string) error { return ptldb.AddTargetSet(dir, "base", "poi", targets, 3, cfg) },
			func(h *ptldb.DB) bool { _, ok := h.TargetSets()["poi"]; return ok },
			func(t *testing.T, what string, h *ptldb.DB) {
				q, when := ptldb.StopID(0), tt.MinTime()+tt.Span()/3
				got, err := h.EAKNN("poi", q, when, 3)
				if err != nil {
					t.Fatal(err)
				}
				want := csa.EarliestArrivalKNN(tt, q, targets, when, 3)
				if len(got) != len(want) {
					t.Fatalf("%s: EA kNN has %d results, the oracle %d", what, len(got), len(want))
				}
				for i := range got {
					if got[i].Stop != want[i].Stop || got[i].When != want[i].When {
						t.Errorf("%s: EA kNN position %d is %v, the oracle has %v", what, i, got[i], want[i])
					}
				}
			}},
		{"AddVersion", func(dir string) error { return ptldb.AddVersion(dir, "weekend", weekend, cfg) },
			func(h *ptldb.DB) bool { return slices.Contains(h.Versions(), "weekend") },
			func(t *testing.T, what string, h *ptldb.DB) {
				we, err := h.Version("weekend")
				if err != nil {
					t.Fatal(err)
				}
				eaMatchesCSA(t, what+", weekend", we, weekend)
			}},
		{"BuildPathTables", func(dir string) error { return ptldb.BuildPathTables(dir, "base", tt, cfg) },
			func(h *ptldb.DB) bool { return h.Store().HasPathTables() },
			func(t *testing.T, what string, h *ptldb.DB) {
				checked := 0
				for s := 0; s < n && checked < 5; s++ {
					g := (s*17 + 5) % n
					j, ok, err := h.JourneyFromDB(ptldb.StopID(s), ptldb.StopID(g), tt.MinTime())
					if err != nil {
						t.Fatal(err)
					}
					want := csa.EarliestArrival(tt, ptldb.StopID(s), ptldb.StopID(g), tt.MinTime())
					if s != g && (ok != (want != timetable.Infinity) || (ok && j.Arr != want)) {
						t.Errorf("%s: journey %d -> %d arrives %d, %v; the oracle has %d", what, s, g, j.Arr, ok, want)
					}
					if ok && s != g {
						checked++
					}
				}
				if checked == 0 {
					t.Errorf("%s: no journey checked", what)
				}
			}},
	}
	// holds opens state, which holds the data of the first done writers, and
	// requires it to answer for those and to have none of the rest's.
	holds := func(what, state string, done int) {
		t.Helper()
		if done == 0 {
			sdb, err := sqldb.Open(state, sqldb.Options{})
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			if names := sdb.Tables(); len(names) != 0 {
				t.Errorf("%s: the directory holds the tables %v before Create", what, names)
			}
			sdb.Close()
			return
		}
		h, err := ptldb.Open(state, ptldb.Config{Device: "ram"})
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		for k, c := range writers {
			if has := c.has(h); has != (k < done) {
				t.Errorf("%s: holds the data of %s: %v, want %v", what, c.name, has, k < done)
			} else if has {
				c.check(t, what, h)
			}
		}
		if err := h.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// files returns the names of the files of state.
	files := func(state string) []string {
		t.Helper()
		entries, err := os.ReadDir(state)
		if err != nil {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	for w, wr := range writers {
		before, first := readImage(t, dir), len(steps)
		if err := wr.write(dir); err != nil {
			t.Fatalf("%s: %v", wr.name, err)
		}
		after := readImage(t, dir)
		seen := map[int]bool{}
		recording = false
		for i := first; i < len(steps); i++ {
			what := wr.name + ", after " + steps[i]
			state := filepath.Join(states, strconv.Itoa(i))
			// done is how many writers the state holds the work of.
			var done int
			switch image := readImage(t, state); {
			case bytes.Equal(image, after):
				done = w + 1
			case bytes.Equal(image, before):
				done = w
			default:
				t.Fatalf("%s: the image is neither the one before the call nor the one after it", what)
			}
			seen[done] = true
			for _, name := range files(state) {
				if name != sqldb.ImageName && (name != sqldb.ImageName+".tmp" || done > w) {
					t.Errorf("%s: the directory holds %s", what, name)
				}
			}
			holds(what, state, done)
			if done > w {
				continue
			}
			if err := wr.write(state); err != nil {
				t.Fatalf("%s, run again: %v", what, err)
			}
			if names := files(state); len(names) != 1 || names[0] != sqldb.ImageName {
				t.Errorf("%s, run again: the directory holds %v, want %s alone", what, names, sqldb.ImageName)
			}
			if !bytes.Equal(readImage(t, state), after) {
				t.Errorf("%s, run again: the image is not the one the call wrote uncrashed", what)
			}
			holds(what+", run again", state, w+1)
		}
		recording = true
		if !seen[w] || !seen[w+1] {
			t.Errorf("%s: its %d steps left the image before the call: %v, the one after it: %v; want both", wr.name, len(steps)-first, seen[w], seen[w+1])
		}
		t.Logf("%s: %d steps: %s", wr.name, len(steps)-first, strings.Join(steps[first:], "; "))
	}
}
