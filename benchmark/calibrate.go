package main

import (
	"encoding/binary"
	"os"
	"runtime"
	"sync"
	"syscall"
)

// The reference box is a shared virtual machine whose speed drifts by a
// quarter or more over minutes, on every workload at once, while a pure ALU
// loop (host.spin_ns) barely moves: the neighbours load the memory system.
// That is far beyond any regression bound, and no amount of repetition
// inside a 20 s run averages a slow ten minutes away. So every timed region
// is bracketed by a host calibration: two memory kernels that share no code
// with the repository — first-touch page faults and streaming reads — each
// compared with its time on the reference box at rest. The mean ratio is the
// host's slowdown over that region, and the end-to-end times are reported
// divided by it: seconds as the reference box at rest would have measured
// them. Raw seconds, kernel times and slowdowns are all kept in the record.
//
// Kernels that were tried and dropped: an ALU loop (flat while the workloads
// slowed), dependent loads over 16 MB (noisier than what it corrected) and
// heap churn (its GC cycles mark the workload's own heap, so it measured the
// workload).

// referenceMs is each kernel's time on the reference box (2-core Xeon
// 2.1 GHz VM) at rest: the scale that makes a calibrated second read like a
// second there. It fixes the unit only and cancels whenever two runs are
// compared; on another machine read the raw seconds. Frozen with the
// kernels; changing either re-bases every metric. README.md has the
// measurements that justify calibrating at all.
var referenceMs = []struct {
	kernel string
	ms     float64
}{
	{"fault", 15.5},
	{"stream", 31.0},
}

const calBytes = 32 << 20

// hostSample is one calibration: each kernel's median time over the rounds,
// and the mean of their ratios to the reference.
type hostSample struct {
	KernelMs map[string]float64 `json:"kernel_ms"`
	Slowdown float64            `json:"slowdown"`
}

// calibrateHost measures the host's current speed over sz.calRounds rounds
// (sz.calDiv shrinks the streaming kernel for the package test, whose
// slowdowns therefore mean nothing). Each kernel runs on all GOMAXPROCS
// threads at once and is timed until the last one finishes, because the
// fleets and the live loopback keep every core busy and one slow core slows
// them. The buffers are mapped for one round and unmapped again, so they
// never add to the workload's resident set.
func calibrateHost(sz sizes) (hostSample, error) {
	workers := runtime.GOMAXPROCS(0)
	times := map[string][]float64{}
	// onAll runs fn once per worker, concurrently, each on its own buffer,
	// and records the time until all have returned.
	onAll := func(kernel string, bufs [][]byte, fn func(buf []byte) uint64) {
		var wg sync.WaitGroup
		sums := make([]uint64, workers)
		t0 := now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				sums[w] = fn(bufs[w])
			}(w)
		}
		wg.Wait()
		times[kernel] = append(times[kernel], (now()-t0)*1e3)
		for _, s := range sums {
			spinSink += s
		}
	}
	for round := 0; round < sz.calRounds; round++ {
		bufs := make([][]byte, workers)
		for w := range bufs {
			b, err := syscall.Mmap(-1, 0, calBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
			if err != nil {
				return hostSample{}, err
			}
			bufs[w] = b
		}
		onAll("fault", bufs, func(buf []byte) uint64 {
			for i := 0; i < len(buf); i += 4096 {
				buf[i] = 1
			}
			return 0
		})
		onAll("stream", bufs, func(buf []byte) uint64 {
			var sum uint64
			for pass := 0; pass < 2; pass++ {
				for i := 0; i < len(buf)/sz.calDiv; i += 8 {
					sum += binary.LittleEndian.Uint64(buf[i:])
				}
			}
			return sum
		})
		for _, b := range bufs {
			if err := syscall.Munmap(b); err != nil {
				return hostSample{}, err
			}
		}
	}
	s := hostSample{KernelMs: map[string]float64{}}
	for _, ref := range referenceMs {
		s.KernelMs[ref.kernel] = median(times[ref.kernel])
		s.Slowdown += s.KernelMs[ref.kernel] / ref.ms / float64(len(referenceMs))
	}
	return s, nil
}

// between is the host's slowdown over a region bracketed by two samples.
func between(a, b hostSample) float64 { return (a.Slowdown + b.Slowdown) / 2 }

// resetPeakRSS restarts the kernel's resident-set high-water mark at the
// current resident set, so that peak_rss_mb is the peak of the passes and
// not of a calibration buffer. Best effort: where /proc lacks clear_refs the
// mark simply keeps its process-wide meaning.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}
