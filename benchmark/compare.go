package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
)

// -compare a.json b.json: a is the baseline set of runs, b the candidate,
// both taken on one host at the same seeds (-seed and -repeat). Every
// (end-to-end metric, workload) pair gets a row with both medians, the
// change, the benchmark's bound and a verdict:
//
//	ok          b's median is not worse than a's by more than the bound
//	regressed   it is
//	unresolved  the run-to-run spread of either set is wider than the bound,
//	            so the bound cannot be resolved — unless every run of b
//	            reads better than every run of a, which is ok
//
// filter_rate and recall repeat exactly at a given seed, so they are held to
// the issue's absolute bounds and their spread over seeds plays no part.
// fail_ratio regresses on any increase. Per-layer metrics have no bound and
// are listed for information, as is the number of seeds at which both sets
// decided alike. The exit code is 1 when any row regressed and 2 when the two
// files cannot be compared at all.

func loadReport(path string) (report, error) {
	var r report
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// series collects one metric's values over the runs of one workload.
func series(runs []workloadReport, name string, perLayer bool) []float64 {
	var xs []float64
	for _, r := range runs {
		m := r.EndToEnd
		if perLayer {
			m = r.PerLayer
		}
		if v, ok := m[name]; ok {
			xs = append(xs, v.Value)
		}
	}
	return xs
}

// spread is the interquartile range as a share of the median, with the
// quartiles of Python's statistics.quantiles(xs, n=4) — the rule the
// benchmark's driver applies to its own sets of runs.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	quartile := func(i int) float64 {
		m := len(s) + 1
		j := min(max(i*m/4, 1), len(s)-1)
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	med := median(s)
	if med == 0 {
		return 0
	}
	return math.Abs((quartile(3) - quartile(1)) / med)
}

// seedsOf lists the seeds of one workload's runs, in run order.
func seedsOf(runs []workloadReport) []int64 {
	seeds := make([]int64, len(runs))
	for i, r := range runs {
		seeds[i] = r.Seed
	}
	return seeds
}

// allBetter reports whether every run of b reads better than every run of a.
func allBetter(a, b []float64, lowerIsBetter bool) bool {
	if lowerIsBetter {
		return slices.Max(b) < slices.Min(a)
	}
	return slices.Min(b) > slices.Max(a)
}

func compareReports(pathA, pathB string, w io.Writer) int {
	a, err := loadReport(pathA)
	if err == nil {
		var b report
		if b, err = loadReport(pathB); err == nil {
			return compare(a, b, w)
		}
	}
	fmt.Fprintln(w, "compare:", err)
	return 2
}

func compare(a, b report, w io.Writer) int {
	if a.BenchVersion != b.BenchVersion {
		fmt.Fprintf(w, "compare: benchmark versions differ (%d vs %d): the metrics are not the same measurements\n", a.BenchVersion, b.BenchVersion)
		return 2
	}
	if a.Host != b.Host {
		fmt.Fprintf(w, "compare: host stamps differ, absolute readings are not comparable\n  a: %+v\n  b: %+v\n", a.Host, b.Host)
		return 2
	}
	if a.Scale != b.Scale || a.Seconds != b.Seconds {
		fmt.Fprintf(w, "compare: run shapes differ (scale %g vs %g, seconds %g vs %g)\n", a.Scale, b.Scale, a.Seconds, b.Seconds)
		return 2
	}
	group := func(r report) map[string][]workloadReport {
		g := map[string][]workloadReport{}
		for _, wr := range r.Workloads {
			g[wr.Workload] = append(g[wr.Workload], wr)
		}
		return g
	}
	ga, gb := group(a), group(b)
	for _, spec := range workloads {
		if !slices.Equal(seedsOf(ga[spec.name]), seedsOf(gb[spec.name])) {
			fmt.Fprintf(w, "compare: %s was run at seeds %v and %v: filter_rate, recall and the hashes only compare at identical seeds\n",
				spec.name, seedsOf(ga[spec.name]), seedsOf(gb[spec.name]))
			return 2
		}
	}
	regressed := false
	fmt.Fprintf(w, "%-17s %-24s %14s %14s %9s %7s %8s  %s\n", "workload", "metric", "a median", "b median", "change", "bound", "spread", "verdict")
	for _, spec := range workloads {
		ra, rb := ga[spec.name], gb[spec.name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		for _, d := range endToEnd {
			xa, xb := series(ra, d.name, false), series(rb, d.name, false)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			lower := d.better == "lower"
			worse := ratio(mb-ma, ma) // share of a's median by which b is worse
			if !lower {
				worse = -worse
			}
			if d.abs > 0 {
				diff := ma - mb // how far b fell short of a
				if lower {
					diff = -diff
				}
				if d.bothWays {
					diff = math.Abs(diff)
				}
				verdict := "ok"
				if diff > d.abs {
					verdict = "regressed"
					regressed = true
				}
				fmt.Fprintf(w, "%-17s %-24s %14.6g %14.6g %+9.4f %7.3f %8s  %s\n", spec.name, d.name, ma, mb, mb-ma, d.abs, "", verdict)
				continue
			}
			sp := spread(xa)
			if s := spread(xb); s > sp {
				sp = s
			}
			verdict := "ok"
			switch {
			case sp > d.bound && !allBetter(xa, xb, lower):
				verdict = "unresolved"
			case worse > d.bound:
				verdict = "regressed"
				regressed = true
			}
			fmt.Fprintf(w, "%-17s %-24s %14.6g %14.6g %+8.2f%% %6.1f%% %7.2f%%  %s\n",
				spec.name, d.name, ma, mb, ratio(mb-ma, ma)*100, d.bound*100, sp*100, verdict)
		}
		alike := 0
		for i := range ra {
			if ra[i].DecisionHash == rb[i].DecisionHash && ra[i].InputDigest == rb[i].InputDigest {
				alike++
			}
		}
		fmt.Fprintf(w, "%-17s %-24s %d of %d seeds: same input digest and decision hash in both sets\n", spec.name, "decisions", alike, len(ra))
		fa, fb := median(series(ra, failRatio, false)), median(series(rb, failRatio, false))
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
			regressed = true
		}
		fmt.Fprintf(w, "%-17s %-24s %14.6g %14.6g %9s %7s %8s  %s\n", spec.name, failRatio, fa, fb, "", "any", "", verdict)
		for _, d := range perLayer {
			xa, xb := series(ra, d.name, true), series(rb, d.name, true)
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			ma, mb := median(xa), median(xb)
			if ma == 0 && mb == 0 {
				continue
			}
			fmt.Fprintf(w, "%-17s %-24s %14.6g %14.6g %+8.2f%% %7s %8s  %s\n",
				spec.name, d.name, ma, mb, ratio(mb-ma, ma)*100, "-", "", "info")
		}
	}
	if regressed {
		return 1
	}
	return 0
}
