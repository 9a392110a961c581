// Command benchmark is the repo's round ledger: four named workloads, the
// end-to-end metrics an operator of the gate lives by, and an outside-in
// per-layer trace. See README.md in this directory.
//
//	go run ./benchmark -workload all -seed 1 -trace 1 -out ledger.json
//	go run ./benchmark -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// report is the file -out writes and -compare reads.
type report struct {
	BenchVersion int              `json:"bench_version"`
	Host         hostStamp        `json:"host"`
	Git          gitStamp         `json:"git"`
	Seed         int64            `json:"seed"`
	Seconds      float64          `json:"seconds"`
	Scale        float64          `json:"scale"`
	Traced       bool             `json:"traced"`
	When         string           `json:"when"`
	Workloads    []workloadReport `json:"workloads"`
}

// driverLine is the one-line JSON result the benchmark contract asks for.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "load generator seed")
		seconds  = flag.Float64("seconds", 20, "nominal timed wall clock per workload; fixes the round count")
		trace    = flag.Int("trace", 0, "1 adds the traced, checked run and reports the per-layer metrics")
		scale    = flag.Float64("scale", 1, "fleet size multiplier (the smoke test uses 0.02)")
		repeat   = flag.Int("repeat", 1, "runs per workload, at seeds seed, seed+1, ...: a set -compare can take medians of")
		out      = flag.String("out", "", "write the full report to this file")
		spans    = flag.String("spans", "", "write the traced run's spans (JSON lines) to this file prefix")
		compare  = flag.Bool("compare", false, "compare two report files: -compare a.json b.json")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "usage: benchmark -compare a.json b.json")
			os.Exit(2)
		}
		os.Exit(compareReports(flag.Arg(0), flag.Arg(1), os.Stdout))
	}
	if *repeat < 1 || *seconds <= 0 || *scale <= 0 {
		fmt.Fprintln(os.Stderr, "benchmark: -repeat must be at least 1, -seconds and -scale positive")
		os.Exit(2)
	}
	if procs := runtime.NumCPU(); procs > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}

	var specs []workloadSpec
	if *workload == "all" {
		specs = workloads
	} else {
		w, err := findWorkload(*workload)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		specs = []workloadSpec{w}
	}
	single := len(specs) == 1 && *repeat == 1

	rep := report{
		BenchVersion: benchVersion, Host: readHost(), Git: readGit(),
		Seed: *seed, Seconds: *seconds, Scale: *scale, Traced: *trace != 0,
		When: time.Now().UTC().Format(time.RFC3339),
	}
	ok := true
	for i := 0; i < len(specs)**repeat; i++ {
		spec, runSeed := specs[i / *repeat].scaled(*scale), *seed+int64(i%*repeat)
		m, err := measureWorkload(spec, runSeed, *seconds, *trace != 0)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		rep.Workloads = append(rep.Workloads, m.report)
		printWorkload(os.Stdout, m.report)
		if *spans != "" && m.spans != nil {
			if err := m.spans.writeSpans(*spans+"."+spec.name+".jsonl", spec.name); err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: writing spans:", err)
				os.Exit(1)
			}
		}
		ok = ok && m.report.Correct
	}
	if *out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark: writing report:", err)
			os.Exit(1)
		}
	}
	if single {
		w := rep.Workloads[0]
		line := driverLine{Correct: w.Correct, Attempted: w.Attempted, Failed: w.Failed, Metrics: map[string]driverValue{}}
		defs, vals := endToEnd, w.EndToEnd
		if *trace != 0 {
			defs, vals = perLayer, w.PerLayer
		}
		for _, d := range defs {
			line.Metrics[d.name] = driverValue{Value: vals[d.name].Value, Unit: d.unit}
		}
		buf, err := json.Marshal(line)
		if err != nil { // a metric that is not a finite number
			fmt.Fprintln(os.Stderr, "benchmark: result line:", err)
			os.Exit(1)
		}
		fmt.Println(string(buf))
	}
	if !ok {
		os.Exit(1)
	}
}

func printWorkload(w *os.File, r workloadReport) {
	fmt.Fprintf(w, "== %s  seed=%d m=%d active=%d B=%.1f  rounds=%d  failed=%d/%d  hash=%s digest=%s  (%.1fs)\n",
		r.Workload, r.Seed, r.Streams, r.Active, r.Budget, r.Rounds, r.Failed, r.Attempted, r.DecisionHash, r.InputDigest, r.WallS)
	printMetrics(w, r.EndToEnd)
	printMetrics(w, r.PerLayer)
	for _, n := range r.Notes {
		fmt.Fprintf(w, "   note: %s\n", n)
	}
}

func printMetrics(w *os.File, m map[string]metricValue) {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := m[n]
		fmt.Fprintf(w, "   %-34s %16.6g %-8s n=%d %s\n", n, v.Value, v.Unit, v.Samples, v.Kind)
	}
}
