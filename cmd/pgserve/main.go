// Command pgserve serves a synthetic camera fleet over PGSP/TCP, standing
// in for an RTSP camera farm. Pair it with pggate.
//
// Usage:
//
//	pgserve -addr :9560 -streams 32 -realtime
//	pgserve -addr :9560 -streams 8 -rounds 1000 -codec h265
package main

import (
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"time"

	"packetgame/internal/capture"
	"packetgame/internal/codec"
	"packetgame/internal/stream"
)

func main() {
	var (
		addr     = flag.String("addr", "127.0.0.1:9560", "listen address")
		streams  = flag.Int("streams", 16, "number of muxed camera streams")
		rounds   = flag.Int("rounds", 0, "rounds per connection (0 = until disconnect)")
		realtime = flag.Bool("realtime", false, "pace rounds at -fps")
		fps      = flag.Int("fps", 25, "frame rate")
		gop      = flag.Int("gop", 25, "GOP size")
		codecStr = flag.String("codec", "h264", "codec: h264, h265, vp9, jpeg2000")
		seed     = flag.Int64("seed", 1, "random seed")
		drain    = flag.Duration("drain", 5*time.Second, "shutdown grace period before force-closing connections")
		record   = flag.String("record", "", "record the first served session to this .pgc capture file (virtual 1/fps timestamps)")
	)
	flag.Parse()

	c, err := codec.ParseCodec(*codecStr)
	if err != nil {
		fatal(err)
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}

	// Recording taps the first accepted session server-side: packets only
	// (the gate and its decision trace live on the pggate side).
	var capw *capture.Writer
	var capFile *os.File
	if *record != "" {
		capFile, err = os.Create(*record)
		if err != nil {
			fatal(err)
		}
		metas := make([]capture.StreamMeta, *streams)
		for i := range metas {
			metas[i] = capture.StreamMeta{Codec: c.String(), FPS: *fps, GOPSize: *gop}
		}
		capw, err = capture.NewWriter(capFile, capture.SessionMeta{
			Label:          fmt.Sprintf("pgserve %s x%d", c, *streams),
			StartUnixNanos: time.Now().UnixNano(),
			Streams:        metas,
		})
		if err != nil {
			fatal(err)
		}
	}

	scfg := stream.ServerConfig{
		Rounds:   *rounds,
		Realtime: *realtime,
		FPS:      *fps,
		NewStreams: func() []*codec.Stream {
			fleet := make([]*codec.Stream, *streams)
			for i := range fleet {
				fleet[i] = codec.NewStream(
					codec.SceneConfig{BaseActivity: 0.4, PersonRate: 0.3, AnomalyRate: 30, FPS: *fps},
					codec.EncoderConfig{StreamID: i, Codec: c, GOPSize: *gop, FPS: *fps},
					*seed+int64(i)*7919)
			}
			return fleet
		},
	}
	if capw != nil {
		// Virtual timestamps at the nominal frame interval keep server-side
		// captures deterministic whether or not -realtime paces the send.
		step := time.Second / time.Duration(*fps)
		scfg.Record = func(round int64, streamID int, p *codec.Packet) {
			_ = capw.WritePacket(time.Duration(round)*step, round, p)
		}
	}
	srv, err := stream.Serve(ln, scfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("pgserve: serving %d %s streams on %s (realtime=%v)\n",
		*streams, c, srv.Addr(), *realtime)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	<-sig
	// Graceful stop: quit accepting, let every active connection finish its
	// current round and send the goodbye marker, then force-close stragglers.
	// A second SIGINT aborts immediately.
	fmt.Println("pgserve: draining connections (interrupt again to abort)")
	done := make(chan struct{})
	go func() {
		srv.Shutdown(*drain)
		close(done)
	}()
	select {
	case <-done:
		if capw != nil {
			if err := capw.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "pgserve: finalizing capture:", err)
			} else if err := capFile.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "pgserve: closing capture:", err)
			} else {
				fmt.Printf("pgserve: capture written to %s\n", *record)
			}
		}
		fmt.Println("pgserve: shut down cleanly")
	case <-sig:
		fmt.Println("pgserve: aborted")
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pgserve:", err)
	os.Exit(1)
}
