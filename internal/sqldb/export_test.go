package sqldb

// SetAfterStep installs f as the hook every writer calls after each of its
// file-system steps (afterStep), for this package's external tests, and
// returns the function that removes it again.
func SetAfterStep(f func(step string)) (restore func()) {
	afterStep = f
	return func() { afterStep = nil }
}
