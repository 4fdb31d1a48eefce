package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"syscall"
	"time"
)

// stamp identifies the run: what ran, on what, from which source.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPU        string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
}

func newStamp(workload string, seed int64, seconds, trace int) stamp {
	return stamp{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPU:        cpuModel(),
		GoVersion:  runtime.Version(),
		Commit:     commit(),
		Source:     sourceDigest("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the toolchain stamped into the binary; a build
// outside a git checkout has none, and the source digest identifies it.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev == "" {
		return "unknown"
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// sourceDigest hashes the program's Go sources and module file under root,
// skipping hidden directories, so two runs of the same code share a digest
// whether or not the checkout is a git repository.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, filepath.ToSlash(path)+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// procSample is a point-in-time reading of the Go runtime's CPU accounting.
type procSample struct {
	wall   time.Time
	cpu    time.Duration // user + system
	gcCPU  float64       // runtime/metrics GC CPU seconds
	allCPU float64       // runtime/metrics total CPU seconds
}

var procMetrics = []metrics.Sample{
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
	{Name: "/cpu/classes/total:cpu-seconds"},
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // zero CPU on failure
	s := procSample{
		wall: time.Now(),
		cpu:  time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
	}
	ms := append([]metrics.Sample(nil), procMetrics...)
	metrics.Read(ms)
	if ms[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = ms[0].Value.Float64()
	}
	if ms[1].Value.Kind() == metrics.KindFloat64 {
		s.allCPU = ms[1].Value.Float64()
	}
	return s
}

// procDelta returns CPU utilisation over the interval as a share of
// wall × GOMAXPROCS, and the share of the runtime's CPU time spent in GC.
func procDelta(a, b procSample) (cpuUtil, gcFrac float64) {
	wall := b.wall.Sub(a.wall).Seconds() * float64(runtime.GOMAXPROCS(0))
	if wall > 0 {
		cpuUtil = (b.cpu - a.cpu).Seconds() / wall
	}
	if d := b.allCPU - a.allCPU; d > 0 {
		gcFrac = (b.gcCPU - a.gcCPU) / d
	}
	return cpuUtil, gcFrac
}
