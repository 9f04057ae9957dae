//go:build race

package experiments

// raceEnabled: under the race detector sync.Pool drops a quarter of its
// Puts and every allocation carries shadow bookkeeping, so byte budgets
// read off runtime.MemStats.TotalAlloc do not hold; count budgets do.
const raceEnabled = true
