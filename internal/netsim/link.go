package netsim

// Link models one direction of the edge↔cloud connection at a constant
// rate and latency. It doubles as the constant Trace (see trace.go), which
// is what simulated deployments actually price transfers through: the
// package-level TransferSeconds. The method below is the closed form tests
// hold that integral to, and its zero-bandwidth escape hatch holds for the
// method alone: over the Trace path a non-positive rate is a dead link.
type Link struct {
	BandwidthBps float64 // bits per second
	LatencySec   float64 // one-way propagation + queuing latency
}

// TransferSeconds returns the time to deliver a message of the given size.
//
// Zero-value escape hatch, tests only: a non-positive BandwidthBps makes
// the link infinitely fast (latency-only transfers) so unit tests can pin
// exact event times without modelling bandwidth. Deployment configs must
// never rely on it — a misconfigured dead link would silently become a
// perfect one — so core.Config.Validate rejects non-positive bandwidth and
// every Trace constructor rejects a non-positive base rate.
func (l Link) TransferSeconds(bytes int) float64 {
	if l.BandwidthBps <= 0 {
		return l.LatencySec
	}
	return l.LatencySec + float64(bytes)*8/l.BandwidthBps
}

// DefaultUplink returns the calibrated edge→cloud link (LTE-class uplink;
// must sustain Cloud-Only's ≈3.3 Mbps stream).
func DefaultUplink() Link { return Link{BandwidthBps: 6e6, LatencySec: 0.055} }

// DefaultDownlink returns the calibrated cloud→edge link.
func DefaultDownlink() Link { return Link{BandwidthBps: 12e6, LatencySec: 0.055} }

// Usage accumulates transferred bytes per direction.
type Usage struct {
	UpBytes   int64
	DownBytes int64
}

// AddUp records an uplink transfer.
func (u *Usage) AddUp(bytes int) { u.UpBytes += int64(bytes) }

// AddDown records a downlink transfer.
func (u *Usage) AddDown(bytes int) { u.DownBytes += int64(bytes) }

// UpKbps returns average uplink usage in kilobits/second over the duration.
func (u *Usage) UpKbps(durationSec float64) float64 {
	if durationSec <= 0 {
		return 0
	}
	return float64(u.UpBytes) * 8 / durationSec / 1000
}

// DownKbps returns average downlink usage in kilobits/second.
func (u *Usage) DownKbps(durationSec float64) float64 {
	if durationSec <= 0 {
		return 0
	}
	return float64(u.DownBytes) * 8 / durationSec / 1000
}
