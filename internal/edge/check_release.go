//go:build !shoggothdebug

package edge

// tickReplay and scanReplay are compiled out in release builds. Build with
// -tags shoggothdebug to replay every TickFrames and Scan span through the
// one-frame Tick and Sample on copies, bit for bit (see check_debug.go).
type (
	tickReplay struct{}
	scanReplay struct{}
)

func replayTicks(*Device) tickReplay                                                { return tickReplay{} }
func (tickReplay) matches(*Device, int, int, float64, int)                          {}
func replayScan(*Sampler) scanReplay                                                { return scanReplay{} }
func (scanReplay) matches(*Sampler, int, int, float64, float64, float64, int, bool) {}
