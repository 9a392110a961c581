package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// The smoke test keeps the benchmark compiling and running against the
// layers' public functions as they change: tier-1 `go test ./...` runs all
// four workloads, traced, at a fiftieth of their fleet size.

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

func TestMain(m *testing.M) {
	code := m.Run()
	os.RemoveAll(".bench_build") // the replay capture and cluster journal live here
	os.Exit(code)
}

// TestBenchmarkJSONMatchesTables holds BENCHMARK.json to the tables in
// spec.go, name for name, so the driver and the program cannot drift apart.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(buf))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, spec.go %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %q, spec.go %q", i, bf.Workloads[i].Name, w.name)
		}
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, spec.go %d", len(bf.EndToEnd), len(endToEnd))
	}
	sawSetup := false
	for i, d := range endToEnd {
		g := bf.EndToEnd[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json %+v, spec.go %+v", i, g, d)
		}
		if d.bound <= 0 || d.bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.name, d.bound)
		}
		sawSetup = sawSetup || (d.name == "setup_s" && d.unit == "s" && d.better == "lower")
	}
	if !sawSetup {
		t.Error("no setup_s metric")
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, spec.go %d", len(bf.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, d := range perLayer {
		g := bf.PerLayer[i]
		if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json %+v, spec.go %+v", i, g, d)
		}
	}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || len(d.name) > 64 {
			t.Errorf("metric name %q is not a valid benchmark name", d.name)
		}
		if seen[d.name] {
			t.Errorf("metric name %q used twice", d.name)
		}
		seen[d.name] = true
	}
}

func checkMetrics(t *testing.T, workload string, defs []metricDef, got map[string]metricValue) {
	t.Helper()
	for _, d := range defs {
		v, ok := got[d.name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s missing", workload, d.name)
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("%s: metric %s is %v", workload, d.name, v.Value)
		case v.Unit != d.unit:
			t.Errorf("%s: metric %s has unit %q, want %q", workload, d.name, v.Unit, d.unit)
		case isLatency(d.unit) && v.Kind != "measured":
			t.Errorf("%s: latency %s is not tagged measured", workload, d.name)
		}
	}
}

// TestSmokeAllWorkloads runs every workload, untraced then traced and
// checked, at -scale 0.02.
func TestSmokeAllWorkloads(t *testing.T) {
	for _, spec := range workloads {
		m, err := measureWorkload(spec.scaled(0.02), 1, 0.3, true)
		if err != nil {
			t.Fatalf("%s: %v", spec.name, err)
		}
		r := m.report
		checkMetrics(t, spec.name, endToEnd, r.EndToEnd)
		checkMetrics(t, spec.name, perLayer, r.PerLayer)
		for _, d := range endToEnd {
			if r.EndToEnd[d.name].Value <= 0 {
				t.Errorf("%s: end-to-end metric %s reads %v, must be positive", spec.name, d.name, r.EndToEnd[d.name].Value)
			}
		}
		if fr := r.EndToEnd[failRatio]; fr.Value != 0 || !r.Correct {
			t.Errorf("%s: fail_ratio %v (failed %d of %d): %v", spec.name, fr.Value, r.Failed, r.Attempted, r.Notes)
		}
		if spec.kind == kindCluster && r.PerLayer["cluster.oracle_match"].Value != 1 {
			t.Errorf("%s: cluster.oracle_match = %v", spec.name, r.PerLayer["cluster.oracle_match"].Value)
		}
		if m.spans == nil || len(m.spans.spans) == 0 {
			t.Errorf("%s: traced run recorded no spans", spec.name)
		}
	}
}

// TestGeneratorSelfChecks: the same seed gives the same input digest and the
// same decisions; another seed gives other input.
func TestGeneratorSelfChecks(t *testing.T) {
	spec := workloads[1].scaled(0.02) // sparse-temporal: rotating window, staged engine
	run := func(seed int64) workloadReport {
		m, err := measureWorkload(spec, seed, 0.3, false)
		if err != nil {
			t.Fatal(err)
		}
		return m.report
	}
	a, b, c := run(7), run(7), run(8)
	if a.InputDigest != b.InputDigest || a.DecisionHash != b.DecisionHash {
		t.Errorf("seed 7 twice: digests %s/%s, hashes %s/%s", a.InputDigest, b.InputDigest, a.DecisionHash, b.DecisionHash)
	}
	for _, name := range []string{"filter_rate", "recall"} {
		if a.EndToEnd[name].Value != b.EndToEnd[name].Value {
			t.Errorf("seed 7 twice: %s %v vs %v", name, a.EndToEnd[name].Value, b.EndToEnd[name].Value)
		}
	}
	if a.InputDigest == c.InputDigest {
		t.Errorf("seeds 7 and 8 share input digest %s", a.InputDigest)
	}
	// The generator's thread count must not change what it generates.
	g1, g2 := newGenerator(spec, 7, 1, 0), newGenerator(spec, 7, 3, 0)
	g1.next(40)
	g2.next(40)
	if g1.digest != g2.digest {
		t.Errorf("digest depends on generator threads: %x vs %x", g1.digest, g2.digest)
	}
}

// TestCompareVerdicts drives -compare on synthetic reports.
func TestCompareVerdicts(t *testing.T) {
	recall := 0.147
	mk := func(pps ...float64) report {
		r := report{BenchVersion: benchVersion, Seconds: 15, Scale: 1}
		for i, v := range pps {
			r.Workloads = append(r.Workloads, workloadReport{
				Workload: "local-dense", Seed: int64(i + 1),
				EndToEnd: map[string]metricValue{
					"packets_per_s": {Value: v, Unit: "1/s"},
					"recall":        {Value: recall, Unit: "ratio"},
					failRatio:       {Value: 0, Unit: "ratio"},
				},
			})
		}
		return r
	}
	var out bytes.Buffer
	if code := compare(mk(100, 101, 102), mk(99, 100, 101), &out); code != 0 {
		t.Errorf("within bound: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compare(mk(100, 101, 102), mk(60, 61, 62), &out); code != 1 || !bytes.Contains(out.Bytes(), []byte("regressed")) {
		t.Errorf("40%% slower: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compare(mk(100, 150, 200), mk(90, 140, 190), &out); code != 0 || !bytes.Contains(out.Bytes(), []byte("unresolved")) {
		t.Errorf("wide spread: exit %d\n%s", code, out.String())
	}
	// recall is held to an absolute 0.005, whatever its relative bound.
	base := mk(100, 101, 102)
	recall = 0.144
	out.Reset()
	if code := compare(base, mk(100, 101, 102), &out); code != 0 {
		t.Errorf("recall -0.003: exit %d\n%s", code, out.String())
	}
	recall = 0.140
	out.Reset()
	if code := compare(base, mk(100, 101, 102), &out); code != 1 {
		t.Errorf("recall -0.007: exit %d\n%s", code, out.String())
	}
	recall = 0.147
	other := mk(100)
	other.Workloads[0].Seed = 9
	if code := compare(mk(100), other, &out); code != 2 {
		t.Errorf("seed mismatch: exit %d", code)
	}
	other = mk(100)
	other.Host.CPU = "another machine"
	if code := compare(mk(100), other, &out); code != 2 {
		t.Errorf("host mismatch: exit %d", code)
	}
	other = mk(100)
	other.BenchVersion++
	if code := compare(mk(100), other, &out); code != 2 {
		t.Errorf("version mismatch: exit %d", code)
	}
}
