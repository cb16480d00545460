package rpc

import (
	"bufio"
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"shoggoth/internal/video"
)

// postLabel posts a raw body to /v1/label and returns the status and the
// reply text.
func postLabel(t *testing.T, url string, body io.Reader) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/label", "application/octet-stream", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(io.LimitReader(resp.Body, 4<<10))
	return resp.StatusCode, string(text)
}

// TestForeignBodyGets400NamingVersion: the label endpoint speaks exactly one
// format. A gob stream (what this endpoint took before) or a body of another
// wire version is a 400 that tells the peer which version to speak.
func TestForeignBodyGets400NamingVersion(t *testing.T) {
	srv, p := newTestServer(t)
	var gobBody bytes.Buffer
	req := LabelRequest{DeviceID: "edge-old", Frames: collectFrames(p, 1, 2, 15)}
	if err := gob.NewEncoder(&gobBody).Encode(&req); err != nil {
		t.Fatal(err)
	}
	v1 := AppendLabelRequest(nil, &req)
	v1[3] = 1
	for name, body := range map[string][]byte{"gob": gobBody.Bytes(), "version 1": v1, "empty": nil} {
		code, text := postLabel(t, srv.URL, bytes.NewReader(body))
		if code != http.StatusBadRequest || !strings.Contains(text, "wire version 3") {
			t.Fatalf("%s body: want 400 naming wire version 3, got %d %q", name, code, text)
		}
	}
}

// TestOversizeRequestGets413: over the cap by declared Content-Length the
// upload is refused before a byte of it is sent; with no declared length it
// is refused as soon as the bytes read pass the cap.
func TestOversizeRequestGets413(t *testing.T) {
	srv, _ := newTestServer(t)

	// Declared: headers only, over a raw connection — the 413 must arrive
	// although the body never does.
	conn, err := net.Dial("tcp", strings.TrimPrefix(srv.URL, "http://"))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintf(conn, "POST /v1/label HTTP/1.1\r\nHost: cloud\r\nContent-Length: %d\r\n\r\n", MaxLabelRequestBytes+1)
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("declared oversize: want 413, got %s", resp.Status)
	}

	// Chunked: a well-formed header followed by filler, one byte over.
	head := AppendLabelRequest(nil, &LabelRequest{DeviceID: "edge-big"})
	filler := io.LimitReader(zeros{}, int64(MaxLabelRequestBytes+1-len(head)))
	code, text := postLabel(t, srv.URL, io.MultiReader(bytes.NewReader(head), filler))
	if code != http.StatusRequestEntityTooLarge {
		t.Fatalf("chunked oversize: want 413, got %d %q", code, text)
	}

	// Exactly at the cap the body is read and judged on its content.
	filler = io.LimitReader(zeros{}, int64(MaxLabelRequestBytes-len(head)))
	if code, text = postLabel(t, srv.URL, io.MultiReader(bytes.NewReader(head), filler)); code != http.StatusBadRequest {
		t.Fatalf("body at the cap: want the decoder's 400, got %d %q", code, text)
	}
}

type zeros struct{}

func (zeros) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestHostileCountGets400: a few dozen bytes claiming 2^60 frames are a 400,
// decided without allocating for the claim.
func TestHostileCountGets400(t *testing.T) {
	srv, _ := newTestServer(t)
	var code int
	var text string
	n := allocatedBy(func() { code, text = postLabel(t, srv.URL, bytes.NewReader(hostileCount())) })
	if code != http.StatusBadRequest || !strings.Contains(text, "cannot fit") {
		t.Fatalf("want 400 refusing the count, got %d %q", code, text)
	}
	if n > 1<<20 {
		t.Fatalf("a %d-byte body made the process allocate %d bytes", len(hostileCount()), n)
	}
}

// TestClientRefusesOversizeReply: the client's own cap holds against a
// cloud that declares, or just streams, too large a reply.
func TestClientRefusesOversizeReply(t *testing.T) {
	frames := collectFrames(video.DETRACProfile(), 1, 1, 15)
	for _, declared := range []bool{true, false} {
		srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			_, _ = io.Copy(io.Discard, r.Body)
			if declared {
				w.Header().Set("Content-Length", fmt.Sprint(MaxLabelResponseBytes+1))
			}
			_, _ = io.Copy(w, io.LimitReader(zeros{}, MaxLabelResponseBytes+1))
		}))
		_, err := NewClient(srv.URL, "edge-1").Label(frames, 0.9, 0.5)
		srv.Close()
		if err == nil || !strings.Contains(err.Error(), "cap") {
			t.Fatalf("declared=%v: want the reply refused at the cap, got %v", declared, err)
		}
	}
}

// TestClientRefusesOversizeRequest: an upload the server is bound to answer
// 413 is not sent at all. It is one frame of zero-valued proposals, each
// with a GT, so each encodes at exactly minProposalBytes+minGTBytes.
func TestClientRefusesOversizeRequest(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { hits.Add(1) }))
	defer srv.Close()
	gt := &video.GT{}
	proposals := make([]video.Proposal, MaxLabelRequestBytes/(minProposalBytes+minGTBytes)+1)
	for i := range proposals {
		proposals[i].GT = gt
	}
	huge := []video.Frame{{Proposals: proposals}}
	_, err := NewClient(srv.URL, "edge-1").Label(huge, 0.9, 0.5)
	if err == nil || !strings.Contains(err.Error(), "cap") || hits.Load() != 0 {
		t.Fatalf("want the upload refused locally, got %v after %d requests", err, hits.Load())
	}
}

// TestBackpressureKeepsConnection: a 429 must not cost the overloaded cloud
// a TCP connection. One accepted upload followed by ten rejected ones used
// to open ten connections, because the client closed each 429 reply unread
// and net/http then drops the connection under it.
func TestBackpressureKeepsConnection(t *testing.T) {
	p := video.DETRACProfile()
	var opened atomic.Int32
	srv := httptest.NewUnstartedServer(NewServerOpts(p, 7, ServerOptions{QueueCap: 1}).Handler())
	srv.Config.ConnState = func(_ net.Conn, state http.ConnState) {
		if state == http.StateNew {
			opened.Add(1)
		}
	}
	srv.Start()
	t.Cleanup(srv.Close)

	client := NewClient(srv.URL, "edge-bp")
	client.HTTP.Transport = &http.Transport{} // its own pool: no connection left over from another test
	frames := collectFrames(p, 7, 20, 15)
	if _, err := client.Label(frames, 0.9, 0.5); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := client.Label(frames, 0.9, 0.5); !errors.Is(err, ErrBackpressure) {
			t.Fatalf("upload %d: want backpressure, got %v", i+2, err)
		}
	}
	// A 400 leaves the connection usable too.
	if _, err := client.Label(nil, 0.9, 0.5); err == nil {
		t.Fatal("empty batch must be refused")
	}
	if _, err := client.Status(); err != nil {
		t.Fatal(err)
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("13 requests on one client opened %d connections, want 1", n)
	}
}

// TestStatusIsJSON: /v1/status is plain JSON an operator can curl, under
// the same lower-snake names the stats structs carry everywhere else.
func TestStatusIsJSON(t *testing.T) {
	srv, p := newTestServer(t)
	if _, err := NewClient(srv.URL, "edge-1").Label(collectFrames(p, 1, 5, 15), 0.9, 0.5); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(srv.URL + "/v1/status?device=edge-1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type %q, want application/json", ct)
	}
	var doc struct {
		DeviceID      string `json:"device_id"`
		FramesLabeled int64  `json:"frames_labeled"`
		Tier          struct {
			Batches      int     `json:"batches"`
			JainFairness float64 `json:"jain_fairness"`
		} `json:"tier"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.DeviceID != "edge-1" || doc.FramesLabeled != 5 || doc.Tier.Batches != 1 || doc.Tier.JainFairness != 1 {
		t.Fatalf("unexpected status document: %+v", doc)
	}
}
