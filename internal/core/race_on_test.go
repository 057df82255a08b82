//go:build race

package core

// raceEnabled reports that the race detector is instrumenting this
// build; allocation budgets are skipped because its shadow memory and
// instrumented allocations distort runtime.MemStats.
const raceEnabled = true
