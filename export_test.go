package ptldb

// OpenReference is Open on the reference executor: no statement fuses, so the
// general SQL executor answers every query. The differential batteries and
// BenchmarkFusedExec compare a production handle against it.
func OpenReference(dir string, cfg Config) (*DB, error) { return open(dir, cfg, true) }
