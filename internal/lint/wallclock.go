package lint

import (
	"go/ast"
	"go/types"
)

// wallClockFuncs are the time-package functions that read or wait on the
// machine's real clock. Pure-value helpers (time.Duration arithmetic,
// time.Unix, time.Date) stay legal: they do not observe "now".
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Since":     true,
	"Until":     true,
	"Sleep":     true,
	"After":     true,
	"Tick":      true,
	"NewTimer":  true,
	"NewTicker": true,
	"AfterFunc": true,
}

// WallClock forbids reading the wall clock in sim-path packages. Every
// simulated quantity must be a function of the virtual clock (sim.Scheduler
// time threaded through the event loop) so that runs are bit-reproducible
// and a one-hour stream evaluates in seconds; wall time is only legal in
// cmd/ binaries, or behind an injected clock such as
// detect.PerfCounters.Clock, or under a justified //shoggoth:allow on the
// live (rpc) boundary.
var WallClock = &Analyzer{
	Name:    "wallclock",
	Doc:     "forbid time.Now/Since/Sleep/... in sim-path packages; only the virtual clock or an injected clock is legal",
	SkipPkg: isBinaryPkg,
	Run: func(pass *Pass) {
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := staticFunc(pass.Info, call)
				if fn == nil || pkgPathOf(fn) != "time" || fn.Type().(*types.Signature).Recv() != nil {
					return true
				}
				if wallClockFuncs[fn.Name()] {
					pass.Reportf(call.Pos(),
						"time.%s reads the wall clock in a sim-path package: use the virtual clock (scheduler time) or an injected clock (PerfCounters.Clock)",
						fn.Name())
				}
				return true
			})
		}
	},
}
