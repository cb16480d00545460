//go:build shoggothdebug

package sim

// checkHeap panics unless the engine queue's invariants hold (heapErr). The
// release build compiles it away (check_release.go); CI runs the sim tests
// with -tags shoggothdebug so the in-place batch restore is checked after
// every merge.
func (e *Engine) checkHeap() {
	if err := e.heapErr(); err != nil {
		panic("sim: engine queue: " + err.Error())
	}
}
