package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"strings"
)

// span is one timed interval at a layer boundary. Parent is the id of the
// span that was open when this one began (0 for a root); every span of one
// benchmark run shares Run.
type span struct {
	ID     int     `json:"id"`
	Name   string  `json:"name"`
	Start  float64 `json:"start"`
	End    float64 `json:"end"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
}

// tracer records spans in memory; they are written out once, when the run
// ends. A nil tracer records nothing, which is the untraced pass. Spans
// open and close on the goroutine that drives the workload, so the open
// stack needs no lock.
type tracer struct {
	run   string
	spans []span
	open  []int
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return 0
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Name: name, Start: now(), Parent: parent, Run: t.run})
	t.open = append(t.open, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id-1].End = now()
	t.open = t.open[:len(t.open)-1]
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) float64 {
	if t == nil {
		return 0
	}
	var sum float64
	for _, s := range t.spans {
		if s.Name == name {
			sum += s.End - s.Start
		}
	}
	return sum
}

func (t *tracer) write(path string) error {
	data, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// profGroups are the buckets of the CPU-profile attribution: one per repo
// package that does simulated or live work, the root package, and the rest.
var profGroups = []string{
	"tensor", "nn", "detect", "replay", "video", "edge", "netsim", "metrics", "geom",
	"cloud", "sim", "core", "scenario", "rpc", "root", "other", "stdlib", "gc", "runtime",
}

// gcRoots are the runtime entry points under which a sample is garbage
// collection rather than allocation or scheduling.
var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true,
	"runtime.bgscavenge": true, "runtime.gcStart": true, "runtime.gcMarkTermination": true,
	"runtime.gcMarkDone": true,
}

// cpuProfile runs fn under the runtime CPU profiler and returns, per group,
// the share of samples whose leaf frame lies in that group. The shares sum
// to 1 (all zero when the run was too short to be sampled).
func cpuProfile(fn func() error) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	zr, err := gzip.NewReader(&buf)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	stacks, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(profGroups))
	var total float64
	for _, st := range stacks {
		shares[groupOf(st.funcs)] += st.weight
		total += st.weight
	}
	for _, g := range profGroups {
		if total > 0 {
			shares[g] /= total
		}
	}
	return shares, nil
}

// groupOf classifies one sampled stack (leaf first) by its leaf frame.
func groupOf(funcs []string) string {
	if len(funcs) == 0 {
		return "other"
	}
	pkg := funcPackage(funcs[0])
	switch {
	case pkg == "runtime":
		for _, f := range funcs {
			if gcRoots[f] {
				return "gc"
			}
		}
		return "runtime"
	case pkg == "shoggoth":
		return "root"
	case strings.HasPrefix(pkg, "shoggoth/internal/"):
		name := strings.TrimPrefix(pkg, "shoggoth/internal/")
		for _, g := range profGroups {
			if g == name {
				return g
			}
		}
		return "other"
	case pkg == "main" || strings.HasPrefix(pkg, "shoggoth/"):
		return "other"
	}
	return "stdlib"
}

// funcPackage extracts the import path from a symbol name such as
// "shoggoth/internal/tensor.MulBiasIntoNZ" or "encoding/gob.(*Decoder).Decode".
func funcPackage(name string) string {
	if i := strings.IndexByte(name, '['); i >= 0 {
		name = name[:i] // type arguments may contain slashes and dots
	}
	slash := strings.LastIndexByte(name, '/')
	dot := strings.IndexByte(name[slash+1:], '.')
	if dot < 0 {
		return name
	}
	return name[:slash+1+dot]
}

// stack is one profile sample: function names leaf first, and its weight
// (the last sample value: CPU nanoseconds).
type stack struct {
	funcs  []string
	weight float64
}

// parseProfile decodes the fields of a pprof profile.proto this benchmark
// needs (samples, locations, functions, string table) with a minimal
// protobuf reader, so the module keeps its zero-dependency contract.
func parseProfile(raw []byte) ([]stack, error) {
	type sample struct {
		locs   []uint64
		weight int64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id -> function ids, innermost first
	funcName := map[uint64]int64{}    // function id -> string index
	var strs []string

	err := protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			if err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					if vals := appendVarints(nil, v, b); len(vals) > 0 {
						s.weight = int64(vals[len(vals)-1])
					}
				}
				return nil
			}); err != nil {
				return err
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			if err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locFuncs[id] = fns
		case 5: // Function
			var id uint64
			var name int64
			if err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	out := make([]stack, 0, len(samples))
	for _, s := range samples {
		st := stack{weight: float64(s.weight)}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx >= 0 && int(idx) < len(strs) {
					st.funcs = append(st.funcs, strs[idx])
				}
			}
		}
		out = append(out, st)
	}
	return out, nil
}

// protoFields walks one protobuf message, calling visit with each field's
// number and either its varint value or its length-delimited bytes.
func protoFields(b []byte, visit func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return fmt.Errorf("bad protobuf key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return fmt.Errorf("bad protobuf varint")
			}
			b = b[n:]
			if err := visit(field, v, nil); err != nil {
				return err
			}
		case 1:
			if len(b) < 8 {
				return fmt.Errorf("short protobuf fixed64")
			}
			b = b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return fmt.Errorf("bad protobuf length")
			}
			if err := visit(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return fmt.Errorf("short protobuf fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's values: one value when
// it arrived unpacked (packed == nil), or every varint of a packed run.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
