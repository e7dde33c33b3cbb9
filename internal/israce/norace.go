//go:build !race

// Package israce tells tests whether the race detector is on. Allocation
// budgets need to know: under -race, sync.Pool drops a random share of
// what it is given, so pooled paths allocate there by design.
package israce

// Enabled reports whether the binary was built with the race detector.
const Enabled = false
