//go:build !unix

package exp

// cpuSeconds falls back to wall-clock seconds where rusage is
// unavailable.
func cpuSeconds() float64 { return wallSeconds() }
