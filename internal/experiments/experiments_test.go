package experiments

import (
	"strings"
	"testing"

	"shoggoth/internal/core"
	"shoggoth/internal/metrics"
	"shoggoth/internal/video"
)

func TestPretrainedStudentCached(t *testing.T) {
	p := video.KITTIProfile()
	a := PretrainedStudent(p)
	b := PretrainedStudent(p)
	if a != b {
		t.Fatal("pretrained student should be cached per profile")
	}
}

func TestFigure4Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	m := Mode{Cycles: 0.2, Seed: 1} // 144 s per run: plumbing check only
	f4, err := Figure4(&Suite{Mode: m})
	if err != nil {
		t.Fatal(err)
	}
	if len(f4.AvgFPS) != 5 {
		t.Fatalf("want 5 strategies, got %d", len(f4.AvgFPS))
	}
	if f4.AvgFPS["Edge-Only"] < 29 {
		t.Fatalf("Edge-Only FPS should be ~30: %v", f4.AvgFPS["Edge-Only"])
	}
	if f4.AvgFPS["Cloud-Only"] > 10 {
		t.Fatalf("Cloud-Only FPS should be small: %v", f4.AvgFPS["Cloud-Only"])
	}
	out := f4.Render()
	if !strings.Contains(out, "FIGURE 4") || !strings.Contains(out, "Shoggoth") {
		t.Fatal("render incomplete")
	}
}

func TestTable1RenderAndOrderingHelpers(t *testing.T) {
	// Exercise rendering and the ordering predicate on synthetic rows (the
	// real grid is exercised by the benchmarks).
	t1 := &Table1Result{
		Rows: []Table1Row{
			{Profile: video.ProfileDETRAC, Strategy: "Edge-Only", MAP50: 0.34},
			{Profile: video.ProfileDETRAC, Strategy: "Cloud-Only", UpKbps: 3257, DownKbps: 3539, MAP50: 0.59},
			{Profile: video.ProfileDETRAC, Strategy: "Prompt", UpKbps: 303, DownKbps: 22, MAP50: 0.48},
			{Profile: video.ProfileDETRAC, Strategy: "AMS", UpKbps: 151, DownKbps: 226, MAP50: 0.52},
			{Profile: video.ProfileDETRAC, Strategy: "Shoggoth", UpKbps: 135, DownKbps: 10, MAP50: 0.53},
		},
	}
	out := t1.Render()
	if !strings.Contains(out, "TABLE I") || !strings.Contains(out, "ua-detrac") {
		t.Fatal("table render incomplete")
	}
	if !t1.OrderingHolds(video.ProfileDETRAC) {
		t.Fatal("paper ordering should hold for paper values")
	}
	t1.Rows[0].MAP50 = 0.99 // Edge-Only best → ordering broken
	if t1.OrderingHolds(video.ProfileDETRAC) {
		t.Fatal("ordering check should fail when Edge-Only wins")
	}
}

func TestTable2VariantsCoverPaperRows(t *testing.T) {
	names := map[string]bool{}
	for _, v := range table2Variants() {
		names[v.Name] = true
	}
	for name := range paperTable2 {
		if !names[name] {
			t.Fatalf("missing Table II variant %q", name)
		}
	}
}

func TestTable3RenderAndPredicate(t *testing.T) {
	t3 := &Table3Result{Rows: []Table3Row{
		{Rate: "0.4", UpKbps: 61, AvgIoU: 0.556},
		{Rate: "2.0", UpKbps: 307, AvgIoU: 0.597},
		{Rate: "Adaptive", UpKbps: 135, AvgIoU: 0.640},
	}}
	if !t3.AdaptiveBeatsAllFixed() {
		t.Fatal("adaptive should beat fixed rates for paper values")
	}
	if !strings.Contains(t3.Render(), "TABLE III") {
		t.Fatal("table3 render incomplete")
	}
	t3.Rows[1].AvgIoU = 0.9
	if t3.AdaptiveBeatsAllFixed() {
		t.Fatal("predicate should fail when a fixed rate wins")
	}
}

func TestFigure5RenderWithSyntheticGains(t *testing.T) {
	f5 := &Figure5Result{
		Gains: map[string][]float64{
			"Cloud-Only": {0.1, 0.2, 0.3},
			"Shoggoth":   {0.05, 0.15, 0.2},
			"AMS":        {0.02, 0.1, 0.18},
			"Prompt":     {-0.05, 0.05, 0.1},
		},
		ShoggothBeatsCloudFrac: 0.2,
		ShoggothBeatsAMSFrac:   0.7,
		PromptAboveEdgeFrac:    0.78,
	}
	out := f5.Render()
	if !strings.Contains(out, "FIGURE 5") || !strings.Contains(out, "beats Cloud-Only") {
		t.Fatal("figure5 render incomplete")
	}
	if metrics.Quantile(f5.Gains["Cloud-Only"], 0.5) != 0.2 {
		t.Fatal("quantile sanity")
	}
}

func TestPolicyAblationSmokeAndReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test")
	}
	m := Mode{Cycles: 0.1, Seed: 1} // 72 s per device: plumbing + determinism check
	first, err := PolicyAblation(m)
	if err != nil {
		t.Fatal(err)
	}
	if len(first.Rows) != 6 {
		t.Fatalf("want 3 policies x 2 worker counts = 6 rows, got %d", len(first.Rows))
	}
	for _, row := range first.Rows {
		if row.Batches == 0 {
			t.Fatalf("cell %s x %d served no batches", row.Policy, row.Workers)
		}
		if row.MeanMAP <= 0 {
			t.Fatalf("cell %s x %d has no accuracy signal", row.Policy, row.Workers)
		}
	}
	out := first.Render()
	if !strings.Contains(out, "SCHEDULING ABLATION") || !strings.Contains(out, "wfq") {
		t.Fatal("render incomplete")
	}

	// Seed-for-seed reproducibility: the whole table replays identically.
	second, err := PolicyAblation(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.Rows {
		if first.Rows[i] != second.Rows[i] {
			t.Fatalf("row %d not reproducible:\nfirst:  %+v\nsecond: %+v", i, first.Rows[i], second.Rows[i])
		}
	}
}

func TestSparkline(t *testing.T) {
	s := sparkline([]float64{30, 30, 15, 30}, 4)
	if len([]rune(strings.TrimSpace(s))) != 4 {
		t.Fatalf("sparkline width wrong: %q", s)
	}
	if sparkline(nil, 10) == "" {
		t.Fatal("empty series should still render a placeholder")
	}
}

func TestConfigForUsesMode(t *testing.T) {
	p := video.DETRACProfile()
	cfg := configFor(core.Shoggoth, p, Mode{Cycles: 1.5, Seed: 42})
	if cfg.DurationSec != 1.5*p.ScriptDuration() {
		t.Fatalf("duration wrong: %v", cfg.DurationSec)
	}
	if cfg.Seed != 42 {
		t.Fatal("seed not set")
	}
	// Pretrained stays nil: the fleet in runAll injects the shared cached
	// student for every config that deploys one.
	if cfg.Pretrained != nil {
		t.Fatal("configFor should leave pretraining to the fleet")
	}
}
