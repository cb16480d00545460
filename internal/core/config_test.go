package core

import (
	"strings"
	"testing"

	"shoggoth/internal/netsim"
	"shoggoth/internal/video"
)

func TestValidateRejectsDeadLinks(t *testing.T) {
	base := func() Config { return NewConfig(Shoggoth, video.DETRACProfile()) }
	def := base()
	if err := def.Validate(); err != nil {
		t.Fatalf("calibrated default config must validate: %v", err)
	}

	cfg := base()
	cfg.Uplink.BandwidthBps = 0
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "uplink") {
		t.Fatalf("zero uplink bandwidth must be rejected, got %v", err)
	}
	cfg = base()
	cfg.Downlink.BandwidthBps = -3e6
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "downlink") {
		t.Fatalf("negative downlink bandwidth must be rejected, got %v", err)
	}
	cfg = base()
	cfg.Uplink.LatencySec = -0.1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative uplink latency must be rejected")
	}

	// With a trace installed the constant link fields are unused, so a
	// zeroed Link is fine — the trace constructor already proved positivity.
	cfg = base()
	tr, err := netsim.NewStepTrace(netsim.DefaultUplink(), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Uplink = netsim.Link{}
	cfg.UplinkTrace = tr
	if err := cfg.Validate(); err != nil {
		t.Fatalf("trace-backed uplink must validate regardless of the Link fields: %v", err)
	}
}

// TestValidateDelegatesCloudTier: Config.Cloud is checked by
// cloud.TierConfig.Validate, whose own table covers every bad field.
func TestValidateDelegatesCloudTier(t *testing.T) {
	cfg := NewConfig(Shoggoth, video.DETRACProfile())
	cfg.Cloud.Service.QueueCap = -5
	if err := cfg.Validate(); err == nil || !strings.Contains(err.Error(), "queue cap -5") {
		t.Fatalf("negative cloud queue cap must be rejected, got %v", err)
	}
}

func TestTransferHelpersMatchConstantLink(t *testing.T) {
	cfg := NewConfig(Shoggoth, video.DETRACProfile())
	for _, bytes := range []int{64, 40_000, 2_900_000} {
		for _, now := range []float64{0, 123.456} {
			if got, want := cfg.UplinkTransfer(bytes, now), cfg.Uplink.TransferSeconds(bytes); got != want {
				t.Fatalf("uplink transfer diverged from the constant link: %v vs %v", got, want)
			}
			if got, want := cfg.DownlinkTransfer(bytes, now), cfg.Downlink.TransferSeconds(bytes); got != want {
				t.Fatalf("downlink transfer diverged from the constant link: %v vs %v", got, want)
			}
		}
	}
}
