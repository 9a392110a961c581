package main

import (
	"bufio"
	"bytes"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
)

// hostStamp identifies the machine and toolchain a reading was taken on.
// -compare refuses to diff two reports whose stamps differ: absolute
// wall-clock numbers from different hosts are not comparable.
type hostStamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	OSArch     string `json:"os_arch"`
}

// gitStamp records the source revision. Dirty is its own field, so a
// revision string never carries a "-dirty" suffix of unclear meaning; it is
// nil when the tree state is unknown (the checkout is not a git repository).
type gitStamp struct {
	Rev   string `json:"rev"`
	Dirty *bool  `json:"dirty"`
}

func readHost() hostStamp {
	h := hostStamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		OSArch:     runtime.GOOS + "/" + runtime.GOARCH,
		CPU:        "unknown",
		Kernel:     "unknown",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		var b []byte
		for _, c := range u.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		h.Kernel = string(b)
	}
	return h
}

// readGit prefers the revision the toolchain stamped into the binary and
// falls back to asking git; outside a repository both fail and the revision
// reads "unknown".
func readGit() gitStamp {
	g := gitStamp{Rev: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				g.Rev = s.Value
			case "vcs.modified":
				d := s.Value == "true"
				g.Dirty = &d
			}
		}
	}
	if g.Rev != "unknown" {
		return g
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return g
	}
	g.Rev = strings.TrimSpace(string(out))
	if st, err := exec.Command("git", "status", "--porcelain").Output(); err == nil {
		d := len(bytes.TrimSpace(st)) > 0
		g.Dirty = &d
	}
	return g
}

// loopbackBytes reads the loopback interface's received-byte counter. The
// cluster workload is the only loopback user while it runs, so the delta
// over a run is its wire volume. It reads 0 where /proc/net/dev is missing.
func loopbackBytes() uint64 {
	data, err := os.ReadFile("/proc/net/dev")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		name, rest, ok := strings.Cut(line, ":")
		if !ok || strings.TrimSpace(name) != "lo" {
			continue
		}
		f := strings.Fields(rest)
		if len(f) == 0 {
			return 0
		}
		n, _ := strconv.ParseUint(f[0], 10, 64)
		return n
	}
	return 0
}
