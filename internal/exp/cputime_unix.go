//go:build unix

package exp

import (
	"syscall"
	"time"
)

// cpuSeconds returns the process's cumulative user+system CPU time.
// The overhead experiments divide request counts by CPU time rather
// than wall time: on shared or virtualised runners wall-clock
// throughput inherits multi-percent noise from CPU steal and
// descheduling, while the CPU seconds actually charged to the process
// stay comparable — and instrumentation overhead is CPU work, which is
// exactly what the gates bound. The timing gates of COMPLX and INCR
// use it for the same reason: the work they bound is CPU work, and a
// loaded host stretches wall time far more than CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return (time.Duration(ru.Utime.Nano()) + time.Duration(ru.Stime.Nano())).Seconds()
}
