//go:build race

package cycletime_test

// raceEnabled reports a -race build. Tests whose cost is sequential
// kernel arithmetic, which the detector only slows, cut their inputs
// under it.
const raceEnabled = true
