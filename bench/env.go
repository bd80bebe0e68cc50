package main

import (
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

// envInfo is recorded in every result file, so two files can be told
// apart (or recognised as comparable) without remembering how they were
// made.
type envInfo struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Clients    int     `json:"clients"`
	DataDir    string  `json:"data_dir"`
	DataDirFS  string  `json:"data_dir_fs"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Scale      string  `json:"scale"`
	Started    string  `json:"started"`
}

func captureEnv(cfg runConfig) envInfo {
	return envInfo{
		Commit: buildCommit(), GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), Clients: cfg.p,
		DataDir: cfg.workDir, DataDirFS: fsTypeOf(cfg.workDir),
		Seed: cfg.seed, Seconds: cfg.seconds.Seconds(), Scale: cfg.scale.name,
		Started: time.Now().UTC().Format(time.RFC3339),
	}
}

// buildCommit is the VCS revision the toolchain stamped into the binary;
// a checkout that is not a git repository has none.
func buildCommit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// fsTypeOf names the filesystem holding dir, from the longest matching
// mount point in /proc/mounts ("unknown" without procfs). Recorded
// because fsync and read cost are constants of it.
func fsTypeOf(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	data, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := -1, "unknown"
	for _, line := range strings.Split(string(data), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/") {
			if len(mp) > best {
				best, typ = len(mp), f[2]
			}
		}
	}
	return typ
}

// peakRSSMB reads the process high-water RSS (VmHWM); 0 without procfs.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// repoRoot walks up from the working directory to the directory holding
// BENCHMARK.json, so the default work and output directories land in
// the checkout whether the program is started from the root or from
// bench/.
func repoRoot() string {
	dir, err := os.Getwd()
	if err != nil {
		return "."
	}
	for d := dir; ; d = filepath.Dir(d) {
		if _, err := os.Stat(filepath.Join(d, "BENCHMARK.json")); err == nil {
			return d
		}
		if d == filepath.Dir(d) {
			return dir
		}
	}
}
