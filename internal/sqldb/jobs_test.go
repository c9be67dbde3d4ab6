package sqldb

import (
	"errors"
	"testing"
)

// TestRunJobsFirstErrorInJobOrder: jobs 2 and 5 fail, and with more than one
// worker job 5 fails first in time — job 2 does not report until job 5 has.
// RunJobs still returns job 2's error, the first in job order, at every
// worker count, and every job runs.
func TestRunJobsFirstErrorInJobOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 7} {
		const n = 8
		ran := make([]bool, n)
		errs := map[int]error{2: errors.New("job 2"), 5: errors.New("job 5")}
		fiveFailed := make(chan struct{})
		jobs := make([]func() error, n)
		for j := range jobs {
			jobs[j] = func() error {
				ran[j] = true
				switch {
				case j == 2 && workers > 1:
					<-fiveFailed
				case j == 5:
					defer close(fiveFailed)
				}
				return errs[j]
			}
		}
		if err := RunJobs(workers, jobs); err != errs[2] {
			t.Errorf("workers %d: RunJobs = %v, want %v", workers, err, errs[2])
		}
		for j, ok := range ran {
			if !ok {
				t.Errorf("workers %d: job %d did not run", workers, j)
			}
		}
	}
}
