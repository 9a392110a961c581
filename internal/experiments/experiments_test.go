package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"packetgame/internal/infer"
)

// tinyOptions shrinks every experiment to smoke-test size.
func tinyOptions(buf *bytes.Buffer) Options {
	return Options{Out: buf, Seed: 1, Scale: 0.05}
}

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig2", "fig3", "fig4", "fig9", "tab3", "fig10", "tab4",
		"fig11", "fig12", "fig13", "fig14", "extreme", "tab5", "regret", "pipe", "scale", "lemma1", "ablate", "chaos", "overload", "replay", "cluster", "failover"}
	reg := Registry()
	if len(reg) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(reg), len(want))
	}
	for i, name := range want {
		if reg[i].Name != name {
			t.Errorf("registry[%d] = %q, want %q", i, reg[i].Name, name)
		}
		if reg[i].Title == "" || reg[i].Run == nil {
			t.Errorf("experiment %q incomplete", name)
		}
	}
}

func TestByName(t *testing.T) {
	if _, ok := ByName("fig9"); !ok {
		t.Error("fig9 must resolve")
	}
	if _, ok := ByName("fig99"); ok {
		t.Error("unknown experiment must not resolve")
	}
}

// goldenExperiments are the policy experiments whose printed output at
// tinyOptions is pinned byte for byte in testdata/<name>.golden.
var goldenExperiments = map[string]bool{"fig4": true, "fig10": true, "tab3": true, "regret": true, "ablate": true}

// TestAllExperimentsSmoke runs every experiment at tiny scale and checks it
// produces non-trivial output without error, and that the policy
// experiments print exactly their golden output. This is the integration
// test that keeps the whole reproduction harness runnable.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke tests are not short")
	}
	for _, exp := range Registry() {
		exp := exp
		t.Run(exp.Name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := exp.Run(tinyOptions(&buf)); err != nil {
				t.Fatalf("%s: %v", exp.Name, err)
			}
			out := buf.String()
			if len(out) < 80 {
				t.Fatalf("%s: suspiciously short output:\n%s", exp.Name, out)
			}
			if !strings.Contains(out, "===") {
				t.Errorf("%s: missing section header:\n%s", exp.Name, out)
			}
			if !goldenExperiments[exp.Name] {
				return
			}
			want, err := os.ReadFile(filepath.Join("testdata", exp.Name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if out != string(want) {
				t.Errorf("%s: output differs from testdata/%s.golden:\ngot:\n%s\nwant:\n%s", exp.Name, exp.Name, out, want)
			}
		})
	}
}

func TestScaledFloors(t *testing.T) {
	o := Options{Scale: 0.01}.withDefaults()
	if got := o.scaled(1000, 50); got != 50 {
		t.Errorf("scaled = %d, want floor 50", got)
	}
	o = Options{Scale: 1}.withDefaults()
	if got := o.scaled(1000, 50); got != 1000 {
		t.Errorf("scaled = %d, want 1000", got)
	}
}

func TestStreamsForTaskAssignment(t *testing.T) {
	for name, n := range map[string]int{"PC": 3, "AD": 3, "SR": 3, "FD": 3} {
		task := mustTask(t, name)
		streams := streamsFor(task, n, 1)
		if len(streams) != n {
			t.Errorf("%s: %d streams", name, len(streams))
		}
	}
}

func mustTask(t *testing.T, name string) infer.Task {
	t.Helper()
	task, err := infer.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return task
}
