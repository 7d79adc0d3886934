//go:build !linux

package obs

import "time"

// threadCPU is unavailable off Linux (no per-thread CPU clock in the
// standard library): spans record zero CPU and the attribution report
// falls back to wall time.
func threadCPU() (tid int, cpu time.Duration) { return 0, 0 }
