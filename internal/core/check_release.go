//go:build !shoggothdebug

package core

// wakeCheck is compiled out in release builds. Build with -tags
// shoggothdebug to assert that no events-fidelity flush comes before the
// wake frame the device reported (see check_debug.go).
type wakeCheck struct{}

func (wakeCheck) predicted(*System) {}
func (wakeCheck) flushing(*System)  {}
