package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"syscall"

	"shoggoth"
	"shoggoth/internal/tensor"
)

// now is the benchmark's only clock: monotonic seconds since process start,
// from the repo's one sanctioned wall-time provider.
var now = shoggoth.WallClock()

// fingerprint identifies the code and the machine a record was taken on.
type fingerprint struct {
	GitCommit       string  `json:"git_commit"`
	GoVersion       string  `json:"go_version"`
	GOOS            string  `json:"goos"`
	GOARCH          string  `json:"goarch"`
	NumCPU          int     `json:"nproc"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	CPUModel        string  `json:"cpu_model"`
	FastAccelerated bool    `json:"tensor_fast_accelerated"`
	LoadAvgStart    string  `json:"loadavg_start"`
	SpinBeforeNs    float64 `json:"host_spin_ns_before"`
	SpinAfterNs     float64 `json:"host_spin_ns_after"`
}

func newFingerprint(root string) fingerprint {
	return fingerprint{
		GitCommit:       gitCommit(root),
		GoVersion:       runtime.Version(),
		GOOS:            runtime.GOOS,
		GOARCH:          runtime.GOARCH,
		NumCPU:          runtime.NumCPU(),
		GOMAXPROCS:      runtime.GOMAXPROCS(0),
		CPUModel:        procField("/proc/cpuinfo", "model name"),
		FastAccelerated: tensor.FastAccelerated(),
		LoadAvgStart:    firstLine("/proc/loadavg"),
		SpinBeforeNs:    spinNs(),
	}
}

// gitCommit is best-effort: the driver's checkout is not a git repository.
func gitCommit(root string) string {
	out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func firstLine(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return ""
	}
	line, _, _ := strings.Cut(string(data), "\n")
	return line
}

// procField returns the value of the first "key : value" line of a /proc
// file ("" when the file or key is missing, as off Linux).
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

var spinSink uint64

// spinNs times a fixed xorshift loop (pure ALU, no memory traffic) and
// returns ns per 1000 iterations: the same code on the same idle machine
// reads the same, so a noisy neighbour or a throttled core shows up as a
// larger value in the record.
func spinNs() float64 {
	const iters = 5_000_000
	var reps [3]float64
	for rep := range reps {
		x := uint64(88172645463325252)
		t0 := now()
		for i := 0; i < iters; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		reps[rep] = now() - t0
		spinSink += x
	}
	return median(reps[:]) * 1e9 / (iters / 1000)
}

// cpuSeconds is this process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM), falling
// back to rusage's maxrss where /proc is absent.
func peakRSSMB() float64 {
	var kb float64
	if _, err := fmt.Sscanf(procField("/proc/self/status", "VmHWM"), "%f kB", &kb); err == nil {
		return kb / 1024
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
