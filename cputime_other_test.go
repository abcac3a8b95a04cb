//go:build !unix

package dkip

import "time"

// processCPU reports that the platform gives no process CPU time here.
func processCPU() (time.Duration, bool) { return 0, false }
