package packetgame

import (
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"packetgame/internal/core"
)

// TestOneGatingProtocol holds every caller to one way into a gate: the
// two-method core.Decider. The names are spelled in halves so that searching
// the tree for the retired entry points finds nothing here.
func TestOneGatingProtocol(t *testing.T) {
	var (
		sparse = "Decide" + "SparseAppend"
		full   = "Feedback" + "Full"
		dense  = "Decide" + "Append"
		listed = "Decide" + "RoundAppend"
	)

	decider := reflect.TypeOf((*core.Decider)(nil)).Elem()
	var methods []string
	for i := 0; i < decider.NumMethod(); i++ {
		methods = append(methods, decider.Method(i).Name)
	}
	if want := []string{sparse, full}; !reflect.DeepEqual(methods, want) {
		t.Errorf("core.Decider has methods %v, want exactly %v", methods, want)
	}

	gate := reflect.TypeOf((*core.Gate)(nil))
	var entries []string
	for i := 0; i < gate.NumMethod(); i++ {
		if name := gate.Method(i).Name; strings.HasPrefix(name, "Decide") || strings.HasPrefix(name, "Feedback") {
			entries = append(entries, name)
		}
	}
	want := []string{dense, listed, sparse, full}
	sort.Strings(want)
	if !reflect.DeepEqual(entries, want) {
		t.Errorf("*core.Gate's decide and feedback entry points are %v, want %v", entries, want)
	}

	// Outside the ledger probe (benchmark/), nothing declares a dense
	// protocol method or calls the two dense shims.
	retired := regexp.MustCompile(`func \([^)]*\) (Decide|Feedback|FeedbackExt)\(|\.(` + dense + `|` + listed + `)\(`)
	assertion := regexp.MustCompile(`Gate\.\(|\.\((interface|\*?core\.)`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "benchmark" || strings.HasPrefix(d.Name(), ".") && path != "." {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for n, line := range strings.Split(string(src), "\n") {
			if retired.MatchString(line) {
				t.Errorf("%s:%d: %s", path, n+1, strings.TrimSpace(line))
			}
			// The engine asks its gate for nothing beyond the Decider but
			// the optional pending-round bound.
			if filepath.Dir(path) == filepath.Join("internal", "pipeline") &&
				assertion.MatchString(line) && !strings.Contains(line, "SetMaxPending") {
				t.Errorf("%s:%d: the engine type-asserts its gate: %s", path, n+1, strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
