// Package rpc provides a real network transport for the Shoggoth protocol:
// a cloud HTTP server offering online labeling plus sampling-rate control,
// and an edge client. It exists to demonstrate that the architecture runs as
// an actual distributed system, not only inside the virtual-time simulation;
// cmd/shoggoth-cloud and cmd/shoggoth-edge deploy it across processes, and
// the livecollab example runs it in-process over loopback.
//
// Two endpoints over net/http:
//
//   - POST /v1/label carries one LabelRequest and answers one LabelResponse
//     in the package's own binary format (wire.go; the table is in DESIGN.md
//     §8): positional, length-checked, float64s as their raw bits so the
//     labels the edge trains on are the teacher's to the last bit. There is
//     one format and one version of it — a body in anything else is a 400
//     naming the version expected. Bodies move whole through pooled buffers
//     with Content-Length set on both legs (buffer.go has the ownership
//     rule), under hard caps: MaxLabelRequestBytes (413 beyond it) and
//     MaxLabelResponseBytes.
//   - GET /v1/status?device=ID answers a StatusResponse as JSON, for
//     operators and Client.Status alike.
//
// One honesty note: requests carry full frame descriptions including ground
// truth, because the teacher is a simulated oracle (see DESIGN.md §2). A
// production system would upload encoded images instead.
package rpc

import (
	"shoggoth/internal/cloud"
	"shoggoth/internal/detect"
	"shoggoth/internal/video"
)

// LabelRequest is one uploaded sample buffer with edge telemetry.
type LabelRequest struct {
	// DeviceID isolates per-device state (φ continuity, controller) on the
	// cloud; every edge device gets its own sampling rate.
	DeviceID string
	Frames   []video.Frame
	// Alpha is the estimated accuracy since the last report (§III-C).
	Alpha float64
	// Lambda is the mean resource usage since the last report.
	Lambda float64
	// SLOClass names the device's service-level class for the tier's
	// per-class metrics. Only the first request of a device registers it;
	// empty means the default class. The field is always on the wire (an
	// empty string costs one byte): the format has no optional fields, and a
	// struct change is a WireVersion bump, not a compatible extension.
	SLOClass string
}

// LabelResponse returns online labels and the new sampling rate.
type LabelResponse struct {
	// Labels holds one label set per uploaded frame.
	Labels [][]detect.TeacherLabel
	// PhiMean is the mean label-change loss over the buffer.
	PhiMean float64
	// NewRate is the controller's sampling-rate command (fps).
	NewRate float64
	// QueueDelaySec is how long the batch waited behind the cloud's modeled
	// teacher pipeline before service began — the same contention signal the
	// simulation's shared service reports.
	QueueDelaySec float64
}

// StatusResponse reports cloud-side state for a device, including the
// scheduling engine's queue statistics: the device's own view, the
// tier-wide aggregate, and the full tier breakdown (per-replica queues,
// admission rejections, per-SLO-class latency/drop metrics, fairness).
type StatusResponse struct {
	DeviceID      string  `json:"device_id"`
	Rate          float64 `json:"rate"`
	FramesLabeled int64   `json:"frames_labeled"`
	// Queue is this device's labeling-queue statistics.
	Queue cloud.QueueStats `json:"queue"`
	// Cloud aggregates the whole tier (every device, every replica).
	Cloud cloud.QueueStats `json:"cloud"`
	// Tier is the routing-tier breakdown: per-replica queue statistics and
	// per-SLO-class label latency and drop rates.
	Tier cloud.TierStats `json:"tier"`
}
