package rpc

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// The fuzz targets hold the decoders to three properties on arbitrary
// bytes: they return (never panic); whatever they allocate is bounded by a
// constant times the input — the worst ratios are a frame (88 bytes decoded
// from 29 on the wire), a proposal (104 from 34) and an empty label set (a
// 24-byte slice header and its 8-byte φ from 9), so 4× for all three plus a
// flat allowance for the error value and whatever else the process
// allocates meanwhile; and an input they accept re-encodes
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

// foreignSeeds are the checked-in label seeds that are deliberately not the
// target's own message, with the magic they carry ("" for none of ours).
var foreignSeeds = map[string]string{
	"FuzzDecodeLabelRequest/seed-gob":      "",           // a gob stream, the format before version 1
	"FuzzDecodeLabelResponse/seed-request": requestMagic, // a request handed to the reply decoder
}

// TestLabelSeedsSpeakThisVersion: every checked-in label seed gets past the
// header check — magic and WireVersion — of the decoder it seeds, so the
// fuzzers start from messages whose fields they can reach. A seed left at an
// older version fails here instead of fuzzing nothing but the header. A
// foreign seed must carry the magic it is listed with at this version, and
// must still be refused.
func TestLabelSeedsSpeakThisVersion(t *testing.T) {
	headerErr := func(data []byte, magic string) error {
		r := reader{b: data}
		r.header(magic, "label message")
		return r.err
	}
	for target, own := range map[string]string{"FuzzDecodeLabelRequest": requestMagic, "FuzzDecodeLabelResponse": responseMagic} {
		paths, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
		if err != nil || len(paths) == 0 {
			t.Fatalf("%s: no seeds (%v)", target, err)
		}
		for _, path := range paths {
			name := target + "/" + filepath.Base(path)
			data := readSeed(t, path)
			magic, foreign := foreignSeeds[name]
			if !foreign {
				magic = own
			}
			if magic != "" {
				if err := headerErr(data, magic); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
			if foreign && headerErr(data, own) == nil {
				t.Errorf("%s is listed as foreign but passes the %s header check", name, target)
			}
		}
	}
}

// readSeed returns the one []byte value of a corpus file in the fuzzer's
// "go test fuzz v1" encoding.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body, ok := strings.CutPrefix(strings.TrimSpace(string(raw)), "go test fuzz v1\n[]byte(")
	body, ok2 := strings.CutSuffix(body, ")")
	if !ok || !ok2 {
		t.Fatalf("%s is not one []byte corpus value", path)
	}
	data, err := strconv.Unquote(body)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return []byte(data)
}
