package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Load decodes and validates one custom scenario spec from JSON. Unknown
// fields and anything after the spec's object are rejected, so a typo'd
// key or a second spec fails loudly instead of silently running the
// default world. The scenario is NOT auto-registered; pass it
// to Register to make it name-resolvable.
//
// A small spec, with a cloud block in the shape of cloud.TierConfig (each
// replica's own knobs nest under "service"):
//
//	{
//	  "name": "my-outage",
//	  "profile": "kitti",
//	  "network": {"up": {"kind": "step", "period_sec": 60,
//	                     "windows": [{"start_sec": 40, "end_sec": 50, "rate_bps": 0}]}},
//	  "cloud": {"replicas": 2, "router": "least-loaded",
//	            "service": {"policy": "wfq", "workers": 2, "queue_cap": 8}}
//	}
func Load(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("scenario: decoding spec: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("scenario: decoding spec: data after the spec's JSON object")
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// LoadFile is Load over a JSON file on disk.
func LoadFile(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	sc, err := Load(f)
	if err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return sc, nil
}
