package main

import (
	"bufio"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// envStamp records where a result was measured. Two results are only
// comparable when the machine-shaped fields agree.
type envStamp struct {
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
	GitCommit  string `json:"git_commit"`
	LoadModel  string `json:"load_model"`
	Drivers    int    `json:"drivers"`
	Seed       uint64 `json:"seed"`
	WindowS    int    `json:"window_s"`
	Traced     bool   `json:"traced"`
}

func stampEnv(cfg runConfig, traced bool) envStamp {
	return envStamp{
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		Kernel:     firstLine("/proc/sys/kernel/osrelease"),
		GitCommit:  gitCommit(),
		LoadModel:  loadModel,
		Drivers:    cfg.d,
		Seed:       cfg.seed,
		WindowS:    int(cfg.window.Seconds()),
		Traced:     traced,
	}
}

// comparable refuses to set two results side by side when they were
// measured on different machines: a gate must compare like with like.
func (e envStamp) comparable(o envStamp) error {
	switch {
	case e.GOMAXPROCS != o.GOMAXPROCS:
		return fmt.Errorf("GOMAXPROCS differs: %d vs %d", e.GOMAXPROCS, o.GOMAXPROCS)
	case e.CPUModel != o.CPUModel:
		return fmt.Errorf("CPU model differs: %q vs %q", e.CPUModel, o.CPUModel)
	case e.WindowS != o.WindowS:
		return fmt.Errorf("window differs: %d s vs %d s", e.WindowS, o.WindowS)
	}
	return nil
}

func firstLine(path string) string {
	b, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	line, _, _ := strings.Cut(string(b), "\n")
	return strings.TrimSpace(line)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	for sc := bufio.NewScanner(f); sc.Scan(); {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is the checkout's HEAD, or "unknown" outside a repository —
// the benchmark also runs from plain copies of the tree.
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// preflightFiles fails fast when the descriptor limit cannot hold a
// pooled fleet: n nodes keep up to one connection to each of the others,
// and both ends of every connection are in this process.
func preflightFiles(n int) error {
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		return fmt.Errorf("getrlimit: %w", err)
	}
	// At least the 8192 the issue asks for; a little more is what 64
	// fully meshed nodes can actually reach (2·64·63 = 8064 sockets, plus
	// listeners, epoll and the standard streams).
	need := uint64(max(8192, 2*n*(n-1)+256))
	if lim.Cur < need {
		return fmt.Errorf("open-file limit is %d, the socket workloads need %d (%d nodes x %d pooled peers, both ends in-process): raise it with `ulimit -n %d`",
			lim.Cur, need, n, n-1, need)
	}
	return nil
}

// timeWaitSockets reads the kernel's count of sockets in TIME_WAIT; -1 if
// it cannot be read.
func timeWaitSockets() int {
	b, err := os.ReadFile("/proc/net/sockstat")
	if err != nil {
		return -1
	}
	for _, line := range strings.Split(string(b), "\n") {
		f := strings.Fields(line)
		for i := 0; len(f) > 0 && f[0] == "TCP:" && i+1 < len(f); i++ {
			if f[i] == "tw" {
				if n, err := strconv.Atoi(f[i+1]); err == nil {
					return n
				}
			}
		}
	}
	return -1
}
