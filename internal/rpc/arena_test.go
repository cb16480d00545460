package rpc

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"

	"shoggoth/internal/video"
)

// sameDecoded holds an arena decode to a fresh one where DeepEqual cannot go
// (NaNs compare unequal to themselves): bit-equal values, nil exactly where
// the fresh decode has nil, and every carved slice capped at its length so
// that an append cannot reach a neighbour.
func sameDecoded(got, want *LabelRequest) error {
	if err := sameValue(got, want); err != nil {
		return err
	}
	if (got.Frames == nil) != (want.Frames == nil) {
		return fmt.Errorf("Frames nil: %v vs %v", got.Frames == nil, want.Frames == nil)
	}
	for i := range want.Frames {
		g, w := &got.Frames[i], &want.Frames[i]
		if (g.Proposals == nil) != (w.Proposals == nil) || cap(g.Proposals) != len(g.Proposals) {
			return fmt.Errorf("Frames[%d].Proposals: nil %v vs %v, cap %d len %d", i, g.Proposals == nil, w.Proposals == nil, cap(g.Proposals), len(g.Proposals))
		}
	}
	return nil
}

// TestArenaDecodeMatchesFreshDecode: one arena, a sequence of uploads chosen
// so that each could show the one before through it — large then small,
// GT-heavy then GT-free, a decode that fails half way then a good one — and
// every result is what DecodeLabelRequest makes of the same bytes on fresh
// memory.
func TestArenaDecodeMatchesFreshDecode(t *testing.T) {
	large, _ := realUpload(t, 4)
	small := &LabelRequest{DeviceID: "edge-2", SLOClass: "gold", Frames: collectFrames(video.DETRACProfile(), 5, 2, 15)}
	gtFree := onWire(large)
	for i := range gtFree.Frames {
		for j := range gtFree.Frames[i].Proposals {
			gtFree.Frames[i].Proposals[j].GT = nil
		}
	}
	gtHeavy := onWire(large)
	for i := range gtHeavy.Frames {
		for j := range gtHeavy.Frames[i].Proposals {
			pr := &gtHeavy.Frames[i].Proposals[j]
			if pr.GT == nil {
				pr.GT = &video.GT{TrackID: pr.TrackID, Class: j % 4, Box: pr.Anchor}
			}
		}
	}
	empty := onWire(small)
	for i := range empty.Frames {
		empty.Frames[i].Proposals = nil
	}
	enc := func(req *LabelRequest) []byte { return AppendLabelRequest(nil, req) }
	largeMsg := enc(large)
	steps := []struct {
		name string
		msg  []byte
	}{
		{"large", largeMsg},
		{"small after large", enc(small)},
		{"GT-heavy", enc(gtHeavy)},
		{"GT-free", enc(gtFree)},
		{"cut half way", largeMsg[:len(largeMsg)/2]},
		{"good after a failure", enc(small)},
		{"trailing byte", append(bytes.Clone(largeMsg), 0)},
		{"frames without proposals", enc(empty)},
		{"hostile count", hostileCount()},
		{"no frames", enc(&LabelRequest{DeviceID: "x"})},
		{"large again", largeMsg},
	}
	var arena requestArena
	for _, s := range steps {
		var got, want LabelRequest
		gotErr, wantErr := arena.decode(s.msg, &got), DecodeLabelRequest(s.msg, &want)
		if (gotErr == nil) != (wantErr == nil) || (wantErr != nil && gotErr.Error() != wantErr.Error()) {
			t.Fatalf("%s: arena decode error %v, fresh decode error %v", s.name, gotErr, wantErr)
		}
		if !reflect.DeepEqual(&got, &want) {
			t.Fatalf("%s: arena decode differs from fresh decode: %v", s.name, sameValue(&got, &want))
		}
		if err := sameDecoded(&got, &want); err != nil {
			t.Fatalf("%s: %v", s.name, err)
		}
	}

	// Generated corner values (NaN payloads, extreme ints, empty slices)
	// through the same arena, sizes going up and down.
	g := &gen{rng: rand.New(rand.NewPCG(3, 4))}
	for i := 0; i < 500; i++ {
		msg := enc(g.request())
		var got, want LabelRequest
		if err := arena.decode(msg, &got); err != nil {
			t.Fatal(err)
		}
		if err := DecodeLabelRequest(msg, &want); err != nil {
			t.Fatal(err)
		}
		if err := sameDecoded(&got, &want); err != nil {
			t.Fatalf("generated request %d: %v", i, err)
		}
	}

	// A pooled arena holds no pointer: nothing a past request reached stays
	// reachable through the pool.
	arena.reset()
	for _, f := range arena.frames[:cap(arena.frames)] {
		if f.Proposals != nil || f.Domain != "" {
			t.Fatal("reset left a frame behind")
		}
	}
	for _, p := range arena.proposals[:cap(arena.proposals)] {
		if p.GT != nil {
			t.Fatal("reset left a proposal's pointers behind")
		}
	}
	for _, f := range arena.view[:cap(arena.view)] {
		if f != nil {
			t.Fatal("reset left a frame pointer behind")
		}
	}
}

// TestHandleLabelAllocsBounded: a 20-frame upload through net/http costs a
// bounded number of allocations, client and server together, once buffers
// and arenas are warm. The server's share is one label slice per frame plus
// a fixed handful; most of the rest is net/http's per-request bookkeeping.
// The same round trip made about 430 allocations before the decoded request
// was pooled and the φ chain kept its own buffers.
func TestHandleLabelAllocsBounded(t *testing.T) {
	srv, p := newTestServer(t)
	frames := collectFrames(p, 1, 20, 15)
	client := NewClient(srv.URL, "edge-1")
	label := func() {
		if _, err := client.Label(frames, 0.9, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		label()
	}
	const bound = 200
	if n := testing.AllocsPerRun(100, label); n > bound {
		t.Fatalf("a 20-frame label round trip allocates %v times, want ≤ %d", n, bound)
	}
}

// TestConcurrentArenasStayApart (run under -race in CI): two devices with
// different batch sizes hammer one server while a third sends uploads that
// die with a 400 after the decoder has carved an arena. Every reply the two
// get is the one a server that saw only that device, one request at a time,
// would give: an arena never serves two handlers, and a failed request
// leaves nothing behind in one.
func TestConcurrentArenasStayApart(t *testing.T) {
	p := video.DETRACProfile()
	const rounds = 30
	batches := map[string][]video.Frame{
		"edge-big":   collectFrames(p, 2, 20, 15),
		"edge-small": collectFrames(p, 3, 3, 15),
	}
	reference := func(id string) []*LabelResponse {
		srv := httptest.NewServer(NewServerOpts(p, 7, ServerOptions{}).Handler())
		defer srv.Close()
		client := NewClient(srv.URL, id)
		var out []*LabelResponse
		for r := 0; r < rounds; r++ {
			resp, err := client.Label(batches[id], 0.9, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, resp)
		}
		return out
	}
	want := map[string][]*LabelResponse{"edge-big": reference("edge-big"), "edge-small": reference("edge-small")}

	srv := httptest.NewServer(NewServerOpts(p, 7, ServerOptions{}).Handler())
	defer srv.Close()
	bad := AppendLabelRequest(nil, &LabelRequest{DeviceID: "edge-bad", Frames: batches["edge-big"]})
	refused := [][]byte{
		bad[:len(bad)*3/4],          // ends inside a frame, after the slabs are carved
		append(bytes.Clone(bad), 0), // decodes to its end, then a byte is left over
		AppendLabelRequest(nil, &LabelRequest{DeviceID: "edge-bad", Frames: batches["edge-small"], Alpha: math.NaN()}), // refused after a good decode
	}

	var wg sync.WaitGroup
	errs := make(chan error, 3)
	stop := make(chan struct{})
	for id := range batches {
		wg.Add(1)
		go func(id string) {
			defer wg.Done()
			client := NewClient(srv.URL, id)
			for r := 0; r < rounds; r++ {
				resp, err := client.Label(batches[id], 0.9, 0.5)
				if err != nil {
					errs <- fmt.Errorf("%s round %d: %w", id, r, err)
					return
				}
				// The queue delay is wall-clock time against the modeled
				// teacher's horizon; everything else is a function of the
				// device's uploads alone.
				resp.QueueDelaySec = want[id][r].QueueDelaySec
				if err := sameValue(resp, want[id][r]); err != nil {
					errs <- fmt.Errorf("%s round %d differs from the serial reference: %w", id, r, err)
					return
				}
			}
		}(id)
	}
	var badDone sync.WaitGroup
	badDone.Add(1)
	go func() {
		defer badDone.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := http.Post(srv.URL+"/v1/label", "application/octet-stream", bytes.NewReader(refused[i%len(refused)]))
			if err != nil {
				errs <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				errs <- fmt.Errorf("malformed upload %d answered %d, want 400", i%len(refused), resp.StatusCode)
				return
			}
		}
	}()
	wg.Wait()
	close(stop)
	badDone.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if _, err := NewClient(srv.URL, "edge-bad").Status(); err == nil {
		t.Error("the device whose every upload was refused got registered")
	}
}
