// Command pgcap captures, inspects, transforms, and replays PGSP sessions
// as PGC capture files.
//
// Usage:
//
//	pgcap record -connect 127.0.0.1:9560 -out farm.pgc -rounds 500
//	pgcap map farm.pgc                     # per-stream rates, GOPs, sizes
//	pgcap filter -in farm.pgc -out cut.pgc -from 2s -to 10s -streams 0,3,5
//	pgcap replay -listen 127.0.0.1:9571 -speedup 2 captures/
//	pgcap audit testdata/captures/corpus-burst.pgc
//	pgcap corpus -out testdata/captures    # regenerate the committed corpus
//
// replay serves every capture in the given files/directories as one muxed
// PGSP session, each capture replayed concurrently with its recorded
// inter-round timing (scaled by -speedup, or flattened to the average rate
// with -flat — the control that shows why timestamp-preserving replay
// matters). audit re-runs a capture's packets through a gate rebuilt from
// its recorded configuration and fails loudly if any round's selected set
// diverges from the recorded decision trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"packetgame/internal/capture"
	"packetgame/internal/pipeline"
	"packetgame/internal/stream"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	verb, args := os.Args[1], os.Args[2:]
	var err error
	switch verb {
	case "record":
		err = cmdRecord(args)
	case "map":
		err = cmdMap(args)
	case "filter":
		err = cmdFilter(args)
	case "replay":
		err = cmdReplay(args)
	case "audit":
		err = cmdAudit(args)
	case "corpus":
		err = cmdCorpus(args)
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "pgcap: unknown verb %q\n\n", verb)
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pgcap:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: pgcap <verb> [flags]

verbs:
  record   dial a PGSP server and record the session to a capture file
  map      print per-stream metadata of capture files (rates, GOPs, sizes)
  filter   cut a capture by time window and/or stream subset
  replay   serve captures as live PGSP sessions with recorded timing
  audit    re-run recorded packets through the gate, diff decisions
  corpus   regenerate the committed deterministic corpus

run 'pgcap <verb> -h' for verb flags`)
	os.Exit(2)
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("pgcap record", flag.ExitOnError)
	connect := fs.String("connect", "127.0.0.1:9560", "PGSP server address")
	out := fs.String("out", "capture.pgc", "output capture file")
	rounds := fs.Int64("rounds", 0, "rounds to record (0 = until the server says goodbye)")
	step := fs.Duration("step", 0, "virtual per-round timestamp step (0 = wall-clock arrival offsets)")
	label := fs.String("label", "", "capture label (default: the server address)")
	strip := fs.Bool("strip", false, "drop payloads (metadata-only capture)")
	fs.Parse(args)

	r, err := stream.NewResilient(stream.ResilientConfig{Addr: *connect})
	if err != nil {
		return err
	}
	defer r.Close()
	metas := make([]capture.StreamMeta, 0, len(r.Streams()))
	for _, si := range r.Streams() {
		metas = append(metas, capture.StreamMeta{
			Codec: si.Codec.String(), FPS: si.FPS, GOPSize: si.GOPSize,
		})
	}
	lbl := *label
	if lbl == "" {
		lbl = "pgsp " + *connect
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	w, err := capture.NewWriter(f, capture.SessionMeta{
		Label:          lbl,
		StartUnixNanos: time.Now().UnixNano(),
		Streams:        metas,
	})
	if err != nil {
		f.Close()
		return err
	}
	w.StripPayloads = *strip
	src := pipeline.NewNetSource(r)
	n, err := capture.RecordRounds(src, w, *rounds, *step, nil)
	if err != nil {
		f.Close()
		return err
	}
	if err := w.Close(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("pgcap: recorded %d rounds (%d streams) to %s\n", n, len(metas), *out)
	return nil
}

func cmdMap(args []string) error {
	fs := flag.NewFlagSet("pgcap map", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the raw session header and index as JSON")
	fs.Parse(args)
	paths, err := capturePaths(fs.Args())
	if err != nil {
		return err
	}
	for _, path := range paths {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		meta, idx, err := capture.ReadIndex(f)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if *asJSON {
			out, err := json.MarshalIndent(struct {
				File    string              `json:"file"`
				Session capture.SessionMeta `json:"session"`
				Index   capture.Index       `json:"index"`
			}{path, meta, idx}, "", "  ")
			if err != nil {
				return err
			}
			fmt.Println(string(out))
			continue
		}
		printMap(path, meta, idx)
	}
	return nil
}

func printMap(path string, meta capture.SessionMeta, idx capture.Index) {
	fmt.Printf("%s: %q, %d streams, %d rounds, %d packets, %v\n",
		path, meta.Label, len(meta.Streams), idx.Rounds, idx.Packets,
		idx.Duration().Round(time.Millisecond))
	if meta.Gate != nil {
		audit := "auditable"
		if idx.Decisions == 0 {
			audit = "no decisions"
		}
		fmt.Printf("  gate: budget %.1f window %d, %d decision rounds (%s)\n",
			meta.Gate.Budget, meta.Gate.Window, idx.Decisions, audit)
	} else {
		fmt.Printf("  gate: none recorded (packets only)\n")
	}
	for _, st := range idx.PerStream {
		sm := capture.StreamMeta{}
		if st.ID < len(meta.Streams) {
			sm = meta.Streams[st.ID]
		}
		fmt.Printf("  stream %2d: %-8s %6d pkts %8.2f pkt/s  gop %-3d key %-5d size %d..%d B\n",
			st.ID, sm.Codec, st.Packets, st.MeanRate, st.GOPSize, st.Keyframes,
			st.SizeMin, st.SizeMax)
	}
}

func cmdFilter(args []string) error {
	fs := flag.NewFlagSet("pgcap filter", flag.ExitOnError)
	in := fs.String("in", "", "input capture file")
	out := fs.String("out", "", "output capture file")
	from := fs.Duration("from", 0, "window start (capture time)")
	to := fs.Duration("to", 0, "window end, exclusive (0 = open-ended)")
	streams := fs.String("streams", "", "comma-separated stream IDs to keep (empty = all)")
	rebase := fs.Bool("rebase", false, "shift the kept window back to t=0, round 0")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("filter: -in and -out are required")
	}
	c, err := capture.LoadFile(*in)
	if err != nil {
		return err
	}
	if *from != 0 || *to != 0 {
		c = c.FilterWindow(capture.Window{From: *from, To: *to}, *rebase)
	} else if *rebase {
		c = c.FilterWindow(capture.Window{}, true)
	}
	if *streams != "" {
		var keep []int
		for _, part := range strings.Split(*streams, ",") {
			id, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return fmt.Errorf("filter: stream id %q: %w", part, err)
			}
			keep = append(keep, id)
		}
		c, err = c.FilterStreams(keep)
		if err != nil {
			return err
		}
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	if err := c.Save(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("pgcap: wrote %d rounds (%d streams) to %s\n", len(c.Rounds), len(c.Meta.Streams), *out)
	return nil
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("pgcap replay", flag.ExitOnError)
	listen := fs.String("listen", "127.0.0.1:9570", "PGSP listen address")
	speedup := fs.Float64("speedup", 1, "time scale: 2 halves every recorded gap")
	from := fs.Duration("from", 0, "replay window start (capture time)")
	to := fs.Duration("to", 0, "replay window end, exclusive (0 = open-ended)")
	flat := fs.Bool("flat", false, "flatten to the average round rate (tcpreplay-style control)")
	fs.Parse(args)
	paths, err := capturePaths(fs.Args())
	if err != nil {
		return err
	}
	var captures []*capture.Capture
	for _, path := range paths {
		c, err := capture.LoadFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		captures = append(captures, c)
		fmt.Printf("pgcap: loaded %s: %d streams, %d rounds, %v\n",
			path, len(c.Meta.Streams), len(c.Rounds), c.Duration().Round(time.Millisecond))
	}
	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	srv, err := capture.ServeReplay(ln, captures, capture.ReplayOptions{
		Speedup: *speedup,
		Window:  capture.Window{From: *from, To: *to},
		Flat:    *flat,
	})
	if err != nil {
		ln.Close()
		return err
	}
	mode := "recorded timing"
	if *flat {
		mode = "flat average rate"
	}
	fmt.Printf("pgcap: replaying %d captures (%d muxed streams) on %s at %gx, %s\n",
		len(captures), srv.Streams(), srv.Addr(), *speedup, mode)
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	fmt.Println("pgcap: stopping replay")
	return srv.Close()
}

func cmdAudit(args []string) error {
	fs := flag.NewFlagSet("pgcap audit", flag.ExitOnError)
	verbose := fs.Bool("v", false, "print each divergent round")
	maxReport := fs.Int("max-report", 10, "cap on divergence detail lines")
	fs.Parse(args)
	paths, err := capturePaths(fs.Args())
	if err != nil {
		return err
	}
	failed := 0
	for _, path := range paths {
		c, err := capture.LoadFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		opts := capture.AuditOptions{MaxReport: *maxReport}
		if *verbose {
			opts.Verbose = os.Stdout
		}
		res, err := capture.Audit(c, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if res.Ok() {
			fmt.Printf("%s: OK — %d rounds replayed bit-identically\n", path, res.Rounds)
			continue
		}
		failed++
		fmt.Printf("%s: DIVERGED — %d/%d rounds differ (first at round %d)\n",
			path, res.Divergent, res.Rounds, res.FirstDivergence)
	}
	if failed > 0 {
		return fmt.Errorf("%d capture(s) diverged from their recorded decision trace", failed)
	}
	return nil
}

func cmdCorpus(args []string) error {
	fs := flag.NewFlagSet("pgcap corpus", flag.ExitOnError)
	out := fs.String("out", filepath.Join("testdata", "captures"), "output directory")
	fs.Parse(args)
	paths, err := capture.WriteCorpusDir(*out)
	if err != nil {
		return err
	}
	for _, p := range paths {
		fmt.Println("pgcap: wrote", p)
	}
	return nil
}

// capturePaths expands file and directory arguments into the sorted list of
// capture files to operate on.
func capturePaths(args []string) ([]string, error) {
	if len(args) == 0 {
		return nil, fmt.Errorf("no capture files given")
	}
	var paths []string
	for _, arg := range args {
		st, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			paths = append(paths, arg)
			continue
		}
		matches, err := filepath.Glob(filepath.Join(arg, "*.pgc"))
		if err != nil {
			return nil, err
		}
		if len(matches) == 0 {
			return nil, fmt.Errorf("%s: no .pgc captures", arg)
		}
		paths = append(paths, matches...)
	}
	sort.Strings(paths)
	return paths, nil
}
