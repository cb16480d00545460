package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"shoggoth/internal/cloud"
	"shoggoth/internal/video"
)

// MaxRegistrationBytes caps a /v1/register body; 413 beyond it. A
// registration is a few hundred bytes.
const MaxRegistrationBytes = 4 << 10

// Registration is a run's cloud-facing half: what the server needs to
// build a device exactly as the simulator's tier builds it. Its teacher
// runs on the named profile, seeded on (Seed, core.RNGStreamTeacher), and
// its labeler and controller take the run's configs. A nil Controller is a
// fixed-rate strategy's device, which has none.
type Registration struct {
	DeviceID   string                  `json:"device_id"`
	Profile    string                  `json:"profile"`
	Seed       uint64                  `json:"seed"`
	SLOClass   string                  `json:"slo_class"`
	Labeler    cloud.LabelerConfig     `json:"labeler"`
	Controller *cloud.ControllerConfig `json:"controller"`
}

// Validate rejects a registration the server cannot honour, naming the
// field: an empty device id, a profile it does not serve, or a config
// parameter that is not finite and ≥ 0.
func (r *Registration) Validate() error {
	if r.DeviceID == "" {
		return errors.New("registration: device_id is empty")
	}
	if _, err := video.ProfileByName(r.Profile); err != nil {
		return fmt.Errorf("registration: profile: %w", err)
	}
	if err := r.Labeler.Validate(); err != nil {
		return fmt.Errorf("registration: %w", err)
	}
	if r.Controller != nil {
		if err := r.Controller.Validate(); err != nil {
			return fmt.Errorf("registration: %w", err)
		}
	}
	return nil
}

// DecodeRegistration decodes one /v1/register body strictly: at most
// MaxRegistrationBytes, no key Registration lacks, nothing after the
// object, and a registration that passes Validate.
func DecodeRegistration(body []byte) (*Registration, error) {
	if len(body) > MaxRegistrationBytes {
		return nil, fmt.Errorf("registration: %d bytes exceeds the %d-byte cap", len(body), MaxRegistrationBytes)
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var r Registration
	if err := dec.Decode(&r); err != nil {
		return nil, fmt.Errorf("registration: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, errors.New("registration: data after the object")
	}
	if err := r.Validate(); err != nil {
		return nil, err
	}
	return &r, nil
}
