package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// environment is what the numbers were taken on. It is written into
// results.json and echoed at the top of every run, so a number is never
// quoted without the box it came from.
type environment struct {
	Commit     string   `json:"commit"`
	GoVersion  string   `json:"go_version"`
	NProc      int      `json:"nproc"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	Kernel     string   `json:"kernel"`
	StateFS    string   `json:"state_dir_fs"`
	Clients    int      `json:"clients"`
	Load       string   `json:"load"`
	Seed       int64    `json:"seed"`
	Seconds    float64  `json:"seconds"`
	LoadAvg1   float64  `json:"loadavg_1m"`
	Warnings   []string `json:"warnings,omitempty"`
}

func readEnv(cfg runConfig) environment {
	clients := numClients
	if w := findWorkload(cfg.workload); w != nil {
		clients = w.clients // trace-replay: one goroutine, its two workers are inside ScaleReplay
	}
	e := environment{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: numClients,
		Kernel:     "unknown",
		StateFS:    fsType(cfg.outDir),
		Clients:    clients,
		Load:       "loopback TCP, closed loop, in-process server, fsync before ACK on the durable workload",
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
	}
	// The driver's checkout is not a git repository; the commit is
	// recorded where one is available and "unknown" otherwise.
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		e.Commit = strings.TrimSpace(string(out))
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		e.Kernel = strings.TrimSpace(string(raw))
	}
	if raw, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(raw)); len(f) > 0 {
			e.LoadAvg1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	if e.NProc < numClients {
		e.Warnings = append(e.Warnings, fmt.Sprintf(
			"%d CPU(s) for %d closed-loop clients: numbers are not comparable with the reference box", e.NProc, numClients))
	}
	if e.LoadAvg1 > 1 {
		e.Warnings = append(e.Warnings, fmt.Sprintf(
			"1-minute load average %.2f > 1 at start: the box is not idle", e.LoadAvg1))
	}
	return e
}

func (e environment) print(w io.Writer) {
	fmt.Fprintf(w, "env: commit %s, %s, nproc %d, GOMAXPROCS %d, kernel %s, state-dir fs %s\n",
		e.Commit, e.GoVersion, e.NProc, e.GOMAXPROCS, e.Kernel, e.StateFS)
	fmt.Fprintf(w, "env: %d client goroutine(s), %s; seed %d, %g s window\n", e.Clients, e.Load, e.Seed, e.Seconds)
	for _, msg := range e.Warnings {
		fmt.Fprintln(os.Stderr, "bench: warning:", msg)
	}
}

// fsType names the filesystem dir lives on: the type of the longest
// mount point in /proc/mounts that prefixes its absolute path.
func fsType(dir string) string {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "unknown"
	}
	raw, err := os.ReadFile("/proc/mounts")
	if err != nil {
		return "unknown"
	}
	best, typ := "", "unknown"
	for _, line := range strings.Split(string(raw), "\n") {
		f := strings.Fields(line)
		if len(f) < 3 {
			continue
		}
		mp := f[1]
		if (abs == mp || strings.HasPrefix(abs, strings.TrimSuffix(mp, "/")+"/")) && len(mp) > len(best) {
			best, typ = mp, f[2]
		}
	}
	return typ
}
