package ptldb_test

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"ptldb"
	"ptldb/internal/timetable"
)

// Example builds the paper's Figure 1 network into a directory, adds a
// target set to the directory, opens it and asks Section 3.2.1's worked
// example: the target of {4, 6} reached first from stop 0 after 10:00.
func Example() {
	tmp, err := os.MkdirTemp("", "ptldb-example")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(tmp)
	dir := filepath.Join(tmp, "db")
	cfg := ptldb.Config{Device: "ram"}

	db, err := ptldb.Create(dir, timetable.PaperExample(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := db.Close(); err != nil {
		log.Fatal(err)
	}
	if err := ptldb.AddTargetSet(dir, "base", "poi", []ptldb.StopID{4, 6}, 2, cfg); err != nil {
		log.Fatal(err)
	}

	db, err = ptldb.Open(dir, cfg)
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()
	nearest, err := db.EAKNN("poi", 0, 10*3600, 1)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range nearest {
		fmt.Printf("stop %d, arrive %v\n", r.Stop, r.When)
	}
	// Output:
	// stop 4, arrive 11:00:00
}
