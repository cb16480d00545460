//go:build shoggothdebug

package core

import "fmt"

// wakeCheck holds the wake bound to its promise: an events-fidelity device
// must not flush on a frame before the wake frame it last reported, unless a
// local scheduler event ran since — those are in the engine's key beside
// the wake, and may change the rate the bound was derived from. The release
// build compiles it away (check_release.go); CI runs the core tests and the
// events-fidelity cluster tests with -tags shoggothdebug.
type wakeCheck struct {
	executed int64 // local events executed when wakeFrame was derived
}

func (w *wakeCheck) predicted(s *System) { w.executed = s.sched.Executed() }

func (w *wakeCheck) flushing(s *System) {
	if s.fleet && s.frameIdx < s.wakeFrame && s.sched.Executed() == w.executed {
		panic(fmt.Sprintf("core: device %q flushes on frame %d, before its wake frame %d, with no local event in between",
			s.cfg.DeviceID, s.frameIdx, s.wakeFrame))
	}
}
