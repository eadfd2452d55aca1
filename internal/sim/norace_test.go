//go:build !race

package sim_test

// raceEnabled reports whether the race detector is compiled in; its
// instrumentation allocates, so allocation budgets are not checked.
const raceEnabled = false
