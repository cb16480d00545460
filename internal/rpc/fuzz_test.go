package rpc

import (
	"testing"
)

// The fuzz targets hold the decoders to three properties on arbitrary
// bytes: they return (never panic); whatever they allocate is bounded by a
// constant times the input — the worst ratios are a frame (88 bytes decoded
// from 29 on the wire) and an empty label set (a 24-byte slice header and
// its 8-byte φ from 9), so 4× for both plus a flat allowance for the error
// value and whatever else the process allocates meanwhile; and an input they accept re-encodes
// to a message that decodes to the same value, bit for bit. The request
// target also decodes every input into one arena carried from input to
// input, as the server's pooled arenas are carried from upload to upload,
// and demands the fresh decode's verdict and value. Seeds are checked in
// under testdata/fuzz; CI fuzzes each target for 20 s.

const fuzzAllocSlack = 64 << 10

// fuzzArena is whatever the inputs before this one left behind. A fuzz
// worker runs its inputs one at a time.
var fuzzArena requestArena

func FuzzDecodeLabelRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req LabelRequest
		var err error
		if n := allocatedBy(func() { err = DecodeLabelRequest(data, &req) }); n > uint64(4*len(data)+fuzzAllocSlack) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		var pooled LabelRequest
		if perr := fuzzArena.decode(data, &pooled); (perr == nil) != (err == nil) {
			t.Fatalf("arena decode error %v, fresh decode error %v", perr, err)
		}
		if derr := sameDecoded(&pooled, &req); derr != nil {
			t.Fatalf("arena decode differs from fresh decode: %v", derr)
		}
		if err != nil {
			return
		}
		var again LabelRequest
		if err := DecodeLabelRequest(AppendLabelRequest(nil, &req), &again); err != nil {
			t.Fatalf("accepted input does not survive re-encoding: %v", err)
		}
		if err := sameValue(&req, &again); err != nil {
			t.Fatalf("re-encoding changed the value: %v", err)
		}
	})
}

func FuzzDecodeLabelResponse(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp LabelResponse
		var err error
		if n := allocatedBy(func() { err = DecodeLabelResponse(data, &resp) }); n > uint64(4*len(data)+fuzzAllocSlack) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
		}
		if err != nil {
			return
		}
		var again LabelResponse
		if err := DecodeLabelResponse(AppendLabelResponse(nil, &resp), &again); err != nil {
			t.Fatalf("accepted input does not survive re-encoding: %v", err)
		}
		if err := sameValue(&resp, &again); err != nil {
			t.Fatalf("re-encoding changed the value: %v", err)
		}
	})
}
