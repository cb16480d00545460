//go:build shoggothdebug

package netsim

import "fmt"

// gaveUp panics: an integration loop (TransferSeconds, or
// SharedMedium.advance) stopped at virtual time t with bits still to move,
// because its trace did not advance or it reached maxTraceSegments. The
// release build compiles it away and keeps the loop's fallback
// (check_release.go); CI runs the netsim tests with -tags shoggothdebug.
func gaveUp(loop string, t, bits float64) {
	panic(fmt.Sprintf("netsim: %s gives up at t=%v with %v bits left: the trace does not advance, or it changes more than %d times", loop, t, bits, maxTraceSegments))
}

const debugChecks = true
