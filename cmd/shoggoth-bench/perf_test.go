package main

import "testing"

// TestFastTierGateReadsTheBaseline: the gate compares the fast tier with the
// frozen baseline record, so a faster exact tier — a smaller fast/exact
// ratio — cannot fail it, while a fast tier that lost its lead over the
// baseline does.
func TestFastTierGateReadsTheBaseline(t *testing.T) {
	base := &PerfRecord{TrainNsPerStep: 130000}
	cases := []struct {
		name        string
		file        PerfFile
		accelerated bool
		wantErr     bool
	}{
		{"exact caught up with fast", PerfFile{Baseline: base, SpeedupFastOverExact: 1.0, SpeedupFastVsBaseline: 3.0}, true, false},
		{"fast lost its lead over the baseline", PerfFile{Baseline: base, SpeedupFastOverExact: 2.5, SpeedupFastVsBaseline: 1.2}, true, true},
		{"no microkernels", PerfFile{Baseline: base, SpeedupFastVsBaseline: 0.9}, false, false},
		{"no baseline record", PerfFile{SpeedupFastOverExact: 2.0}, true, false},
	}
	for _, c := range cases {
		verdict, err := fastTierGate(&c.file, 1.5, c.accelerated)
		if (err != nil) != c.wantErr {
			t.Errorf("%s: verdict %q, err %v, want error %v", c.name, verdict, err, c.wantErr)
		}
	}
}
