package rpc

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"sync/atomic"
	"time"

	"shoggoth/internal/video"
)

// DefaultTimeout bounds one label/status round trip. A hung cloud must
// surface as an error at the edge, never stall its real-time loop forever.
const DefaultTimeout = 30 * time.Second

// ErrBackpressure reports the cloud rejected a batch at a full labeling
// queue (HTTP 429). Match it with errors.Is, or errors.As against
// *BackpressureError for the retry hint.
var ErrBackpressure = errors.New("rpc: cloud labeling queue full")

// BackpressureError is the typed form of a 429 rejection: the cloud's
// admission queue was full, and RetryAfter carries the server's estimate of
// when a slot frees (zero if it sent none). An edge should hold its sample
// buffer and try again rather than treat this as a dead cloud.
type BackpressureError struct {
	RetryAfter time.Duration
}

// Error implements error.
func (e *BackpressureError) Error() string {
	if e.RetryAfter > 0 {
		return fmt.Sprintf("%v (retry after %v)", ErrBackpressure, e.RetryAfter)
	}
	return ErrBackpressure.Error()
}

// Unwrap lets errors.Is(err, ErrBackpressure) match.
func (e *BackpressureError) Unwrap() error { return ErrBackpressure }

// Client is the edge side of the Shoggoth protocol.
type Client struct {
	BaseURL  string
	DeviceID string
	// HTTP is the dedicated transport client; NewClient gives it
	// DefaultTimeout. Callers may retune it, but it is never the global
	// http.DefaultClient (whose zero timeout waits forever).
	HTTP *http.Client
}

// NewClient creates an edge client for the cloud at baseURL with a request
// deadline of DefaultTimeout.
func NewClient(baseURL, deviceID string) *Client {
	return &Client{
		BaseURL:  baseURL,
		DeviceID: deviceID,
		HTTP:     &http.Client{Timeout: DefaultTimeout},
	}
}

// describe annotates transport errors, making deadline expiry explicit.
func describe(op string, err error) error {
	var ue *url.Error
	if errors.As(err, &ue) && ue.Timeout() {
		return fmt.Errorf("rpc: %s: cloud deadline exceeded (unreachable or overloaded): %w", op, err)
	}
	return fmt.Errorf("rpc: %s: %w", op, err)
}

// upload is one encoded request body on loan from the buffer pool. net/http
// may still be writing a request body after Do has returned (a reply can
// overtake the upload) and may ask for the body again to retry on a fresh
// connection, so the buffer goes back to the pool only when Label and every
// body handed out have let go of it.
type upload struct {
	buf  *[]byte
	refs atomic.Int32 // Label's own hold plus one per open body
}

// body returns a fresh reader over the encoded bytes; its Close drops the
// hold it takes here.
func (u *upload) body() io.ReadCloser {
	u.refs.Add(1)
	b := &uploadBody{u: u}
	b.Reset(*u.buf)
	return b
}

func (u *upload) release() {
	if u.refs.Add(-1) == 0 {
		putBuffer(u.buf)
	}
}

// uploadBody serves the encoded bytes through the embedded bytes.Reader.
// Its WriteTo is never used: net/http copies a body of known length through
// an io.LimitReader, which hides WriteTo, so the copy ends in the TCP
// connection's generic ReadFrom, and io.Copy there allocates a buffer of up
// to 32 KB per upload. Only a chunked upload avoids that copy path, and it
// would lose the ContentLength by which the server sizes and caps its read.
type uploadBody struct {
	bytes.Reader
	u      *upload
	closed atomic.Bool
}

func (b *uploadBody) Close() error {
	if !b.closed.Swap(true) {
		b.u.release()
	}
	return nil
}

// drain reads off the short text of a non-200 reply: net/http closes a
// connection whose reply was not read to EOF, so an unread refusal would
// cost the cloud a new connection each time. Best effort — a body longer
// than this just costs the connection.
func drain(body io.Reader) { _, _ = io.Copy(io.Discard, io.LimitReader(body, 4<<10)) }

// errorText returns the start of a non-200 reply's body and drains the rest.
func errorText(body io.Reader) []byte {
	msg, _ := io.ReadAll(io.LimitReader(body, 512))
	drain(body)
	return bytes.TrimSpace(msg)
}

// Label uploads a sample buffer with telemetry and returns the teacher
// labels plus the new sampling rate.
func (c *Client) Label(frames []video.Frame, alpha, lambda float64) (*LabelResponse, error) {
	req := LabelRequest{DeviceID: c.DeviceID, Frames: frames, Alpha: alpha, Lambda: lambda}
	up := &upload{buf: getBuffer()}
	up.refs.Store(1)
	defer up.release()
	*up.buf = AppendLabelRequest((*up.buf)[:0], &req)
	if n := len(*up.buf); n > MaxLabelRequestBytes {
		return nil, fmt.Errorf("rpc: label: request of %d bytes exceeds the %d-byte cap; upload fewer frames", n, MaxLabelRequestBytes)
	}
	httpReq, err := http.NewRequest(http.MethodPost, c.BaseURL+"/v1/label", up.body())
	if err != nil {
		return nil, fmt.Errorf("rpc: label: %w", err)
	}
	httpReq.ContentLength = int64(len(*up.buf))
	httpReq.GetBody = func() (io.ReadCloser, error) { return up.body(), nil }
	httpReq.Header.Set("Content-Type", "application/octet-stream")
	httpResp, err := c.HTTP.Do(httpReq)
	if err != nil {
		return nil, describe("label", err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode == http.StatusTooManyRequests {
		drain(httpResp.Body)
		var retry time.Duration
		if secs, err := strconv.Atoi(httpResp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retry = time.Duration(secs) * time.Second
		}
		return nil, &BackpressureError{RetryAfter: retry}
	}
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rpc: label: %s: %s", httpResp.Status, errorText(httpResp.Body))
	}
	if httpResp.ContentLength > MaxLabelResponseBytes {
		return nil, fmt.Errorf("rpc: label: reply of %d bytes exceeds the %d-byte cap", httpResp.ContentLength, MaxLabelResponseBytes)
	}
	reply := getBuffer()
	defer putBuffer(reply)
	if err := readBody(httpResp.Body, reply, httpResp.ContentLength, MaxLabelResponseBytes); err != nil {
		return nil, fmt.Errorf("rpc: label: read reply: %w", err)
	}
	var resp LabelResponse
	if err := DecodeLabelResponse(*reply, &resp); err != nil {
		return nil, fmt.Errorf("rpc: label: decode reply: %w", err)
	}
	if len(resp.Labels) != len(frames) {
		return nil, fmt.Errorf("rpc: label count mismatch: %d responses for %d frames", len(resp.Labels), len(frames))
	}
	return &resp, nil
}

// maxStatusBytes caps the /v1/status reply the client will read.
const maxStatusBytes = 1 << 20

// Status fetches cloud-side state for this device.
func (c *Client) Status() (*StatusResponse, error) {
	httpResp, err := c.HTTP.Get(c.BaseURL + "/v1/status?device=" + url.QueryEscape(c.DeviceID))
	if err != nil {
		return nil, describe("status", err)
	}
	defer httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("rpc: status: %s: %s", httpResp.Status, errorText(httpResp.Body))
	}
	reply := getBuffer()
	defer putBuffer(reply)
	if err := readBody(httpResp.Body, reply, httpResp.ContentLength, maxStatusBytes); err != nil {
		return nil, fmt.Errorf("rpc: status: read reply: %w", err)
	}
	var resp StatusResponse
	if err := json.Unmarshal(*reply, &resp); err != nil {
		return nil, fmt.Errorf("rpc: decode status: %w", err)
	}
	return &resp, nil
}
