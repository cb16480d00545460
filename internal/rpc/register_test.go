package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"shoggoth/internal/cloud"
	"shoggoth/internal/core"
	"shoggoth/internal/sim"
	"shoggoth/internal/video"
)

// postRegister posts a raw body to /v1/register and returns the status and
// the reply text.
func postRegister(t *testing.T, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	return resp.StatusCode, string(text)
}

// validRegistration is an adaptive device's registration body with one
// key replaced by raw JSON (none when key is empty).
func validRegistration(id, key, raw string) []byte {
	fields := map[string]json.RawMessage{
		"device_id":  json.RawMessage(`"` + id + `"`),
		"profile":    json.RawMessage(`"kitti"`),
		"seed":       json.RawMessage(`3`),
		"slo_class":  json.RawMessage(`"gold"`),
		"labeler":    json.RawMessage(`{"teacher_latency_sec": 0.05}`),
		"controller": json.RawMessage(`{"phi_target": 0.9, "alpha_target": 0.7, "eta_r": 0.4, "eta_alpha": 6, "r_min": 0.1, "r_max": 2, "initial_rate": 0.5}`),
	}
	if key != "" {
		fields[key] = json.RawMessage(raw)
	}
	body, _ := json.Marshal(fields) // every value is valid JSON
	return body
}

// TestRegisterAnswers holds /v1/register to its contract: a good body is a
// 201 after which the device has a status; a body the server cannot honour
// is a 400 naming the field; a second registration of a known id, whether
// it registered or uploaded, is a 409; an oversize body is a 413; and a
// full tier never turns a registration away with 429.
func TestRegisterAnswers(t *testing.T) {
	p := video.DETRACProfile()
	// One token that never refills: the first upload empties the bucket.
	srv := httptest.NewServer(NewServerOpts(p, 7, ServerOptions{AdmitRatePerSec: 1e-9, AdmitBurst: 1}).Handler())
	defer srv.Close()

	if code, text := postRegister(t, srv.URL, validRegistration("edge-1", "", "")); code != http.StatusCreated {
		t.Fatalf("valid registration: %d %q", code, text)
	}
	if st, err := NewClient(srv.URL, "edge-1").Status(); err != nil || st.Queue.Batches != 0 {
		t.Fatalf("status of a registered device: %+v, %v", st, err)
	}
	for _, tc := range []struct {
		name string
		body []byte
		code int
		want string
	}{
		{"duplicate", validRegistration("edge-1", "", ""), http.StatusConflict, "edge-1"},
		{"unknown profile", validRegistration("edge-2", "profile", `"mars"`), http.StatusBadRequest, "profile"},
		{"negative controller field", validRegistration("edge-2", "controller", `{"eta_r": -1}`), http.StatusBadRequest, "eta_r"},
		{"rates out of order", validRegistration("edge-2", "controller", `{"r_min": 3, "r_max": 2}`), http.StatusBadRequest, "r_min"},
		{"negative labeler field", validRegistration("edge-2", "labeler", `{"teacher_latency_sec": -0.1}`), http.StatusBadRequest, "teacher_latency_sec"},
		{"non-finite field", validRegistration("edge-2", "labeler", `{"teacher_latency_sec": 1e999}`), http.StatusBadRequest, "teacher_latency_sec"},
		{"string for a number", validRegistration("edge-2", "seed", `"3"`), http.StatusBadRequest, "seed"},
		{"unknown key", validRegistration("edge-2", "weight", `2`), http.StatusBadRequest, "weight"},
		{"empty id", validRegistration("", "", ""), http.StatusBadRequest, "device_id"},
		{"trailing data", append(validRegistration("edge-2", "", ""), []byte(` {}`)...), http.StatusBadRequest, "after the object"},
		{"oversize", validRegistration(strings.Repeat("x", MaxRegistrationBytes), "", ""), http.StatusRequestEntityTooLarge, "cap"},
	} {
		if code, text := postRegister(t, srv.URL, tc.body); code != tc.code || !strings.Contains(text, tc.want) {
			t.Errorf("%s: %d %q, want %d naming %q", tc.name, code, text, tc.code, tc.want)
		}
	}

	// An upload from an unregistered device takes the tier's one token
	// and becomes a known id; the next upload finds the bucket dry.
	frames := collectFrames(p, 1, 2, 15)
	if _, err := NewClient(srv.URL, "edge-3").Label(frames, 0.9, 0.5); err != nil {
		t.Fatal(err)
	}
	if _, err := NewClient(srv.URL, "edge-4").Label(frames, 0.9, 0.5); !errors.Is(err, ErrBackpressure) {
		t.Fatalf("upload at a dry bucket: %v, want backpressure", err)
	}
	if code, text := postRegister(t, srv.URL, validRegistration("edge-3", "", "")); code != http.StatusConflict {
		t.Fatalf("registration of an uploading device: %d %q, want 409", code, text)
	}
	if code, text := postRegister(t, srv.URL, validRegistration("edge-5", "controller", `null`)); code != http.StatusCreated {
		t.Fatalf("registration at a full tier: %d %q, want 201", code, text)
	}
}

// TestCloudConfigRuleIsShared: a NaN and a negative parameter each fail
// core.Config.Validate and the registration a Backend sends, both naming
// the field. The server's side of the rule (a negative or non-finite field
// in the body) is in TestRegisterAnswers; JSON has no NaN.
func TestCloudConfigRuleIsShared(t *testing.T) {
	srv, p := newTestServer(t)
	be, err := NewBackend(srv.URL, core.NewConfig(core.Shoggoth, p), sim.NewScheduler())
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		field string
		set   func(*core.Config)
	}{
		{"phi_target", func(c *core.Config) { c.Controller.PhiTarget = math.NaN() }},
		{"r_max", func(c *core.Config) { c.Controller.RMax = -1 }},
		{"teacher_latency_sec", func(c *core.Config) { c.Labeler.TeacherLatencySec = math.NaN() }},
		{"teacher_latency_sec", func(c *core.Config) { c.Labeler.TeacherLatencySec = -0.5 }},
	} {
		cfg := core.NewConfig(core.Shoggoth, p)
		tc.set(&cfg)
		if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: Config.Validate gave %v", tc.field, err)
		}
		ctrl := cfg.Controller
		if _, err := be.RegisterDevice(fmt.Sprintf("edge-%d", i), nil, cfg.Labeler, &ctrl, cloud.DeviceOptions{}); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("%s: RegisterDevice gave %v", tc.field, err)
		}
	}
}

// FuzzDecodeRegistration feeds arbitrary bytes to the /v1/register decoder,
// which must never panic. A body it accepts must re-encode to one that
// decodes to the same value. Seeds are checked in under testdata/fuzz; CI
// fuzzes it for 20 s.
func FuzzDecodeRegistration(f *testing.F) {
	f.Fuzz(func(t *testing.T, body []byte) {
		reg, err := DecodeRegistration(body)
		if err != nil {
			return
		}
		again, err := json.Marshal(reg)
		if err != nil {
			t.Fatalf("accepted registration does not encode: %v", err)
		}
		back, err := DecodeRegistration(again)
		if err != nil {
			t.Fatalf("re-encoded registration %s does not decode: %v", again, err)
		}
		if !reflect.DeepEqual(back, reg) {
			t.Fatalf("re-encoding changed the value: %+v, want %+v", back, reg)
		}
	})
}
