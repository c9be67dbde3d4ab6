// Package directive is the corpus for waiver hygiene: used lint:ignore
// waivers, on the line above a finding or on its own line (they suppress a
// real finding and stay silent); a stale one (suppresses nothing — itself
// reported); one naming a checker of the suite that did not run (never
// reported: its verdict must wait for a run that could have fired); a
// malformed one; and one naming a checker the suite does not have (reported:
// no run could ever judge it). The directive findings land on the
// directive's own comment line, which cannot also carry a want comment, so
// TestStaleWaiver asserts on Run's output directly instead of through the
// analysistest harness.
package directive

type file struct{}

func (file) Close() error { return nil }

func used(f file) {
	//lint:ignore errcheck the corpus demonstrates waiver suppression
	f.Close()
}

func stale(f file) error {
	//lint:ignore errcheck nothing on the next line drops an error
	return f.Close()
}

func otherChecker(f file) {
	//lint:ignore lockcheck lockcheck does not run over this corpus
	_ = f.Close()
}

func sameLine(f file) {
	f.Close() //lint:ignore errcheck a waiver on the offending line itself
}

func malformed(f file) {
	/*lint:ignore errcheck*/
	_ = f.Close()
}

func unknownChecker(f file) {
	//lint:ignore sqlcheck the suite has no checker of this name
	_ = f.Close()
}

func deletedChecker(f file) {
	//lint:ignore arenacheck the suite no longer has a checker of this name
	_ = f.Close()
}
