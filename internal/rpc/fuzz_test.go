package rpc

import (
	"testing"
)

// The fuzz targets hold the decoders to three properties on arbitrary
// bytes: they return (never panic); whatever they allocate is bounded by a
// constant times the input — the worst ratios are a frame (88 bytes decoded
// from 29 on the wire) and an empty label set (a 24-byte slice header from
// 1), so 4× and 25× plus a flat allowance for the error value and whatever
// else the process allocates meanwhile; and an input they accept re-encodes
// to a message that decodes to the same value, bit for bit. Seeds are
// checked in under testdata/fuzz; CI fuzzes each target for 20 s.

const fuzzAllocSlack = 64 << 10

func FuzzDecodeLabelRequest(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		var req LabelRequest
		var err error
		if n := allocatedBy(func() { err = DecodeLabelRequest(data, &req) }); n > uint64(4*len(data)+fuzzAllocSlack) {
			t.Fatalf("decoding %d bytes allocated %d", len(data), n)
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
		if n := allocatedBy(func() { err = DecodeLabelResponse(data, &resp) }); n > uint64(25*len(data)+fuzzAllocSlack) {
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
