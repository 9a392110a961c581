package capture

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"packetgame/internal/codec"
	"packetgame/internal/core"
	"packetgame/internal/overload"
)

// CorpusSpec parameterizes one deterministic corpus capture: a synthetic
// fleet gated sequentially with virtual bursty timestamps, every input
// derived from the seed, so regenerating the spec reproduces the capture
// byte for byte. The committed files under testdata/captures/ are exactly
// DefaultCorpus() written by `make corpus`.
type CorpusSpec struct {
	// Name is the file stem (Name + ".pgc").
	Name string
	// Streams, Rounds size the capture.
	Streams int
	Rounds  int
	// Seed drives the synthetic fleet and the necessity labels.
	Seed int64
	// Budget and Window configure the recorded gate.
	Budget float64
	Window int
	// Tiers, when non-empty, stripes admission tiers over the fleet
	// (stream i gets Tiers[i mod len]).
	Tiers []uint8
	// FPS paces the virtual timestamps within a burst.
	FPS int
	// BurstRounds and IdleGap shape the recorded timing: BurstRounds
	// rounds at FPS pacing, then an IdleGap pause, repeated. IdleGap 0
	// yields steady pacing. These bursts are what flat-rate replay
	// flattens and timestamp-preserving replay keeps.
	BurstRounds int
	IdleGap     time.Duration
	// DipFrom/DipTo (round indices, half-open) script an overload episode:
	// the planner pins budget·DipBudgetFrac and DipMode for those rounds,
	// so the corpus exercises B_eff and ladder pinning in audits.
	DipFrom, DipTo int
	DipBudgetFrac  float64
	DipMode        overload.Mode
}

// DefaultCorpus lists the committed regression corpus.
func DefaultCorpus() []CorpusSpec {
	return []CorpusSpec{
		{
			Name: "corpus-burst", Streams: 10, Rounds: 120, Seed: 42,
			Budget: 6, Window: 5, Tiers: []uint8{0, 1, 2},
			FPS: 25, BurstRounds: 20, IdleGap: 400 * time.Millisecond,
			DipFrom: 60, DipTo: 84, DipBudgetFrac: 0.5, DipMode: overload.ModeKeyframeOnly,
		},
		{
			Name: "corpus-steady", Streams: 6, Rounds: 100, Seed: 7,
			Budget: 4, Window: 5,
			FPS: 10, BurstRounds: 100,
		},
	}
}

// corpusFleet builds the spec's deterministic synthetic fleet, varying the
// scene and codec per stream so sizes, GOP phases, and activity differ.
func corpusFleet(spec CorpusSpec) []*codec.Stream {
	codecs := []codec.Codec{codec.H264, codec.H265, codec.VP9}
	fleet := make([]*codec.Stream, spec.Streams)
	for i := range fleet {
		fleet[i] = codec.NewStream(
			codec.SceneConfig{
				BaseActivity: 0.25 + 0.1*float64(i%4),
				PersonRate:   0.1 + 0.05*float64(i%3),
				AnomalyRate:  float64(40 + 10*(i%5)),
				FPS:          spec.FPS,
			},
			codec.EncoderConfig{
				StreamID: i,
				Codec:    codecs[i%len(codecs)],
				GOPSize:  20 + 5*(i%2),
				GOPPhase: i * 7,
				FPS:      spec.FPS,
			},
			spec.Seed+int64(i)*7919)
	}
	return fleet
}

// necessity is the corpus's deterministic redundancy verdict: a seeded hash
// of (stream, seq) giving a ~60% necessary rate, so the temporal estimator
// sees mixed rewards without depending on decoder internals.
func necessity(seed int64, p *codec.Packet) bool {
	h := uint64(p.Seq)*2654435761 + uint64(p.StreamID)*7919 + uint64(seed)*1e9 + 7
	return h%5 < 3
}

// sessionMeta builds the capture header for a spec, with the gate's
// *effective* configuration pinned so audits rebuild it exactly.
func sessionMeta(spec CorpusSpec, fleet []*codec.Stream, cfg core.Config) SessionMeta {
	meta := SessionMeta{Label: spec.Name}
	for _, st := range fleet {
		ec := st.Encoder.Config()
		meta.Streams = append(meta.Streams, StreamMeta{
			Codec: ec.Codec.String(), FPS: ec.FPS, GOPSize: ec.GOPSize,
		})
	}
	meta.Gate = &GateMeta{
		Window:          cfg.Window,
		Budget:          cfg.Budget,
		UseTemporal:     cfg.UseTemporal,
		Explore:         *cfg.Explore,
		DependencyAware: *cfg.DependencyAware,
		Priorities:      cfg.Priorities,
		Governed:        spec.DipTo > spec.DipFrom,
	}
	return meta
}

// configFromMeta rebuilds the recorded gate configuration. Audit and the
// corpus generator share it, so what generation ran is exactly what audits
// rerun. Callers attach their own Planner/Trace before NewGate.
func configFromMeta(meta SessionMeta) (core.Config, error) {
	gm := meta.Gate
	if gm == nil {
		return core.Config{}, fmt.Errorf("capture: no gate metadata recorded")
	}
	explore := gm.Explore
	depAware := gm.DependencyAware
	return core.Config{
		Streams:         len(meta.Streams),
		Window:          gm.Window,
		Budget:          gm.Budget,
		UseTemporal:     gm.UseTemporal,
		Explore:         &explore,
		DependencyAware: &depAware,
		Priorities:      gm.Priorities,
	}, nil
}

// GenerateCorpus writes one corpus capture. Everything — packets,
// timestamps, decisions, verdicts — is a pure function of the spec, so the
// output bytes are reproducible (the golden regeneration test holds the
// committed corpus to exactly this).
func GenerateCorpus(w io.Writer, spec CorpusSpec) error {
	if spec.Streams <= 0 || spec.Rounds <= 0 {
		return fmt.Errorf("capture: corpus needs positive streams/rounds")
	}
	if spec.FPS <= 0 {
		spec.FPS = 25
	}
	if spec.BurstRounds <= 0 {
		spec.BurstRounds = spec.Rounds
	}
	if spec.DipBudgetFrac == 0 {
		spec.DipBudgetFrac = 1
	}
	fleet := corpusFleet(spec)

	var prio []uint8
	if len(spec.Tiers) > 0 {
		prio = make([]uint8, spec.Streams)
		for i := range prio {
			prio[i] = spec.Tiers[i%len(spec.Tiers)]
		}
	}
	baseCfg := core.Config{
		Streams: spec.Streams, Window: spec.Window, Budget: spec.Budget,
		UseTemporal: true, Priorities: prio,
	}
	// Probe-build once to resolve defaults, then record the effective
	// config in the header and build the real gate from that header — the
	// exact code path Audit uses.
	probe, err := core.NewGate(baseCfg)
	if err != nil {
		return err
	}
	meta := sessionMeta(spec, fleet, probe.Config())

	cw, err := NewWriter(w, meta)
	if err != nil {
		return err
	}
	cw.StripPayloads = true

	planner := overload.NewScripted(spec.Budget)
	gcfg, err := configFromMeta(meta)
	if err != nil {
		return err
	}
	gcfg.Planner = planner
	gcfg.Trace = cw
	gate, err := core.NewGate(gcfg)
	if err != nil {
		return err
	}

	step := time.Second / time.Duration(spec.FPS)
	var ts time.Duration
	var rnd codec.Round
	var sel []int
	for r := 0; r < spec.Rounds; r++ {
		if r > 0 {
			ts += step
			if spec.IdleGap > 0 && r%spec.BurstRounds == 0 {
				ts += spec.IdleGap
			}
		}
		bEff, mode := spec.Budget, overload.ModeFull
		if r >= spec.DipFrom && r < spec.DipTo {
			bEff, mode = spec.Budget*spec.DipBudgetFrac, spec.DipMode
		}
		planner.Set(bEff, mode)
		rnd.Reset(spec.Streams)
		for i, st := range fleet {
			p := st.Next()
			if err := cw.WritePacket(ts, int64(r), p); err != nil {
				return err
			}
			rnd.Append(int32(i), p)
		}
		sel, err = gate.DecideSparseAppend(&rnd, sel[:0])
		if err != nil {
			return err
		}
		necessary := make([]bool, len(sel))
		for k, i := range sel {
			necessary[k] = necessity(spec.Seed, rnd.Pkts[i])
		}
		if err := gate.FeedbackFull(sel, necessary, nil, nil); err != nil {
			return err
		}
	}
	return cw.Close()
}

// WriteCorpusDir regenerates the default corpus into dir, returning the
// file paths written. This is the `make corpus` recipe.
func WriteCorpusDir(dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var paths []string
	for _, spec := range DefaultCorpus() {
		path := filepath.Join(dir, spec.Name+".pgc")
		f, err := os.Create(path)
		if err != nil {
			return nil, err
		}
		if err := GenerateCorpus(f, spec); err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return nil, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
