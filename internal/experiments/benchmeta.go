package experiments

import (
	"os/exec"
	"strings"
)

// BenchVersion is bumped whenever the shape of any BENCH_*.json report
// changes, so trajectory tooling comparing benchmark files across commits
// can refuse to diff incompatible schemas instead of misreading them.
const BenchVersion = 7

// BenchMeta stamps every BENCH_*.json with a parseable identity: which
// report schema the file carries, which schema revision wrote it, and the
// git describe string of the writing tree.
type BenchMeta struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
	Git     string `json:"git"`
}

// benchMeta builds the stamp for one report family, e.g. "scale" →
// schema "packetgame-bench/scale".
func benchMeta(name string) BenchMeta {
	return BenchMeta{Schema: "packetgame-bench/" + name, Version: BenchVersion, Git: gitDescribe()}
}

// gitDescribe returns `git describe --always --dirty --tags`, or "unknown"
// when the binary runs outside a work tree (or without git on PATH).
func gitDescribe() string {
	out, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}
