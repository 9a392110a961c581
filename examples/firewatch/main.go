// Firewatch: offline-video gating. FireNet-style mobile clips are recorded
// into one PGC capture file (the stand-in for stored MP4s), then re-opened
// and gated for fire detection without transcoding — the paper's
// offline-video applicability claim (Tab 1).
//
//	go run ./examples/firewatch
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"time"

	"packetgame"
	"packetgame/internal/capture"
)

const (
	clips   = 12
	clipLen = 1500 // frames per clip (60s at 25FPS)
	budget  = 3.0
	frame   = time.Second / 25
)

func main() {
	dir, err := os.MkdirTemp("", "firewatch")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "clips.pgc")

	// 1. "Record" the mobile clips into one capture, frame by frame.
	fmt.Printf("writing %d FireNet-style clips to %s...\n", clips, dir)
	if err := record(path, packetgame.FireNet(packetgame.FireNetConfig{Videos: clips, Seed: 11})); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wrote %.1f MB of containers\n\n", float64(info.Size())/1e6)

	// 2. Re-open the capture and gate fire detection across all clips. The
	// virtual clock replays the recorded 25 FPS timing without waiting it out.
	c, err := capture.LoadFile(path)
	if err != nil {
		log.Fatal(err)
	}
	src, err := capture.NewTimedSource(c, capture.ReplayOptions{Clock: &capture.VirtualClock{}})
	if err != nil {
		log.Fatal(err)
	}
	gate, err := packetgame.NewGate(packetgame.GateConfig{
		Streams: clips, Budget: budget, UseTemporal: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	eng, err := packetgame.NewEngine(packetgame.EngineConfig{
		Source: src, Gate: gate, Task: packetgame.FireDetection{},
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := eng.Run(0)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("gated fire detection over %d stored clips:\n", clips)
	fmt.Printf("  packets read     %d\n", rep.Packets)
	fmt.Printf("  packets decoded  %d (%.1f%% of decoding avoided, no transcoding)\n",
		rep.Decoded, rep.GateFilterRate*100)
	fmt.Printf("  frames inferred  %d (fire-relevant: %d)\n", rep.Inferred, rep.NecessaryDecoded)
	fmt.Printf("  wall time        %v\n", rep.Elapsed.Round(1e6))
}

// record writes clipLen frames of every clip into one capture at path, each
// frame stamped with its offset at 25 FPS.
func record(path string, fleet []*packetgame.Stream) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	meta := capture.SessionMeta{Label: "firewatch"}
	for _, st := range fleet {
		ec := st.Encoder.Config()
		meta.Streams = append(meta.Streams, capture.StreamMeta{Codec: ec.Codec.String(), FPS: 25, GOPSize: ec.GOPSize})
	}
	w, err := capture.NewWriter(f, meta)
	if err != nil {
		return err
	}
	for j := 0; j < clipLen; j++ {
		for _, st := range fleet {
			if err := w.WritePacket(time.Duration(j)*frame, int64(j), st.Next()); err != nil {
				return err
			}
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	return f.Close()
}
