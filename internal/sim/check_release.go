//go:build !shoggothdebug

package sim

// checkHeap is compiled out in release builds. Build with
// -tags shoggothdebug to assert the engine queue's invariants after every
// batch restore (see check_debug.go).
func (e *Engine) checkHeap() {}
