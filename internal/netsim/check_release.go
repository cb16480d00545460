//go:build !shoggothdebug

package netsim

// gaveUp is compiled out in release builds, which keep each integration
// loop's fallback: TransferSeconds prices the transfer at +Inf and
// SharedMedium.advance moves its clock to the target with the transfers
// still in flight. Build with -tags shoggothdebug to panic instead, naming
// the instant and the bits left (see check_debug.go).
func gaveUp(string, float64, float64) {}

const debugChecks = false
