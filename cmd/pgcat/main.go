// Command pgcat inspects PacketGame artifacts: PGC capture files and JSONL
// gating traces.
//
// Usage:
//
//	pgcat -pgc capture.pgc         # per-packet listing + summary
//	pgcat -pgc capture.pgc -q      # summary only
//	pgcat -trace gate.jsonl        # gating trace summary
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"packetgame/internal/capture"
	"packetgame/internal/codec"
	"packetgame/internal/stats"
	"packetgame/internal/trace"
)

func main() {
	var (
		pgcPath   = flag.String("pgc", "", "PGC capture file to inspect")
		tracePath = flag.String("trace", "", "JSONL gating trace to summarize")
		quiet     = flag.Bool("q", false, "summary only (no per-packet listing)")
	)
	flag.Parse()

	switch {
	case *pgcPath != "":
		if err := catPGC(*pgcPath, *quiet); err != nil {
			fatal(err)
		}
	case *tracePath != "":
		if err := catTrace(*tracePath); err != nil {
			fatal(err)
		}
	default:
		fmt.Fprintln(os.Stderr, "pgcat: provide -pgc or -trace (see -h)")
		os.Exit(2)
	}
}

func catPGC(path string, quiet bool) error {
	c, err := capture.LoadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("%s: %q, %d streams\n", path, c.Meta.Label, len(c.Meta.Streams))
	for i, sm := range c.Meta.Streams {
		if !quiet {
			fmt.Printf("  stream %d: codec %s, %d FPS, GOP %d\n", i, sm.Codec, sm.FPS, sm.GOPSize)
		}
	}

	var sizes []float64
	counts := map[codec.PictureType]int{}
	var totalBytes int64
	var rnd codec.Round
	for i, r := range c.Rounds {
		if err := c.DecodeRound(i, &rnd); err != nil {
			return err
		}
		for k, p := range rnd.Pkts {
			if !quiet {
				fmt.Printf("%8d s%-5d r%-7d %6s %10dB pts=%dms gop=%d/%d\n",
					p.Seq, rnd.IDs[k], r.Round, p.Type, p.Size, p.PTS, p.GOPIndex, p.GOPSize)
			}
			sizes = append(sizes, float64(p.Size))
			counts[p.Type]++
			totalBytes += int64(p.Size)
		}
	}
	n := len(sizes)
	fmt.Printf("\n%d packets (%d I, %d P, %d B), %.2f MB on the wire, %d decision rounds\n",
		n, counts[codec.PictureI], counts[codec.PictureP], counts[codec.PictureB],
		float64(totalBytes)/1e6, len(c.Decisions))
	if n > 0 {
		fmt.Printf("packet sizes: %s\n", stats.Summarize(sizes))
	}
	if span := c.Duration(); span > 0 {
		fmt.Printf("span %.1fs, mean bitrate %.0f kbit/s\n",
			span.Seconds(), float64(totalBytes)*8/span.Seconds()/1000)
	}
	return nil
}

func catTrace(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	s, err := trace.Summarize(trace.NewReader(f))
	if err != nil {
		return err
	}
	fmt.Printf("%s: %d rounds, %d packets\n", path, s.Rounds, s.Packets)
	fmt.Printf("  selected            %d (filter rate %.1f%%)\n", s.Selected, s.FilterRate*100)
	fmt.Printf("  necessary           %d (precision %.1f%%)\n", s.Necessary, s.Precision*100)
	fmt.Printf("  budget utilization  %.1f%%\n", s.BudgetUtilization*100)
	if len(s.PerStreamSelected) > 0 {
		ids := make([]int, 0, len(s.PerStreamSelected))
		for id := range s.PerStreamSelected {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fmt.Println("  per-stream selections:")
		for _, id := range ids {
			fmt.Printf("    stream %4d: %d\n", id, s.PerStreamSelected[id])
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pgcat:", err)
	os.Exit(1)
}
