package pipeline

import (
	"io"

	"packetgame/internal/codec"
)

// LocalSource feeds rounds from an in-process camera fleet and retains
// ground truth for accuracy accounting.
type LocalSource struct {
	streams []*codec.Stream
	rounds  int
	done    int
	pkts    []*codec.Packet
	truth   []codec.Scene
	round   codec.Round
}

// NewLocalSource wraps a fleet; rounds caps the run (0 = unlimited).
func NewLocalSource(streams []*codec.Stream, rounds int) *LocalSource {
	return &LocalSource{
		streams: streams,
		rounds:  rounds,
		pkts:    make([]*codec.Packet, len(streams)),
		truth:   make([]codec.Scene, len(streams)),
	}
}

// NextRound implements RoundSource.
func (s *LocalSource) NextRound() ([]*codec.Packet, error) {
	if s.rounds > 0 && s.done >= s.rounds {
		return nil, io.EOF
	}
	for i, st := range s.streams {
		s.pkts[i] = st.Next()
		s.truth[i] = st.LastScene
	}
	s.done++
	return s.pkts, nil
}

// NextRoundSparse implements SparseRoundSource.
func (s *LocalSource) NextRoundSparse() (*codec.Round, error) {
	if s.rounds > 0 && s.done >= s.rounds {
		return nil, io.EOF
	}
	s.round.Reset(len(s.streams))
	for i, st := range s.streams {
		p := st.Next()
		s.truth[i] = st.LastScene
		if p != nil {
			s.round.Append(int32(i), p)
		}
	}
	s.done++
	return &s.round, nil
}

// Truth implements RoundSource.
func (s *LocalSource) Truth(i int) (codec.Scene, bool) { return s.truth[i], true }

// Camera is a one-packet-per-round feed. *codec.Stream satisfies it, as do
// fault-injecting wrappers.
type Camera interface {
	Next() *codec.Packet
}

// CameraTruth is optionally implemented by cameras that can report the
// ground-truth scene of their most recent packet.
type CameraTruth interface {
	Truth() (codec.Scene, bool)
}

// CameraSource feeds rounds from arbitrary Camera implementations — the
// injection point for fault-wrapped fleets. Cameras that also implement
// CameraTruth contribute ground truth for accuracy accounting; a camera may
// return nil from Next (an idle or stalled round).
type CameraSource struct {
	cams   []Camera
	rounds int
	done   int
	pkts   []*codec.Packet
	truth  []truthVal
	round  codec.Round
}

// NewCameraSource wraps a camera fleet; rounds caps the run (0 = unlimited).
func NewCameraSource(cams []Camera, rounds int) *CameraSource {
	return &CameraSource{
		cams:   cams,
		rounds: rounds,
		pkts:   make([]*codec.Packet, len(cams)),
		truth:  make([]truthVal, len(cams)),
	}
}

// NextRound implements RoundSource.
func (s *CameraSource) NextRound() ([]*codec.Packet, error) {
	if s.rounds > 0 && s.done >= s.rounds {
		return nil, io.EOF
	}
	for i, cam := range s.cams {
		s.pkts[i] = cam.Next()
		s.truth[i] = truthVal{}
		if ct, ok := cam.(CameraTruth); ok {
			sc, tok := ct.Truth()
			s.truth[i] = truthVal{scene: sc, ok: tok}
		}
	}
	s.done++
	return s.pkts, nil
}

// NextRoundSparse implements SparseRoundSource.
func (s *CameraSource) NextRoundSparse() (*codec.Round, error) {
	if s.rounds > 0 && s.done >= s.rounds {
		return nil, io.EOF
	}
	s.round.Reset(len(s.cams))
	for i, cam := range s.cams {
		p := cam.Next()
		s.truth[i] = truthVal{}
		if ct, ok := cam.(CameraTruth); ok {
			sc, tok := ct.Truth()
			s.truth[i] = truthVal{scene: sc, ok: tok}
		}
		if p != nil {
			s.round.Append(int32(i), p)
		}
	}
	s.done++
	return &s.round, nil
}

// Truth implements RoundSource.
func (s *CameraSource) Truth(i int) (codec.Scene, bool) {
	return s.truth[i].scene, s.truth[i].ok
}

// RoundClient yields PGSP rounds: *stream.Client satisfies it, as does the
// reconnecting *stream.Resilient.
type RoundClient interface {
	NextRound() ([]*codec.Packet, error)
	NextRoundSparse() (*codec.Round, error)
}

// NetSource adapts a PGSP client into a RoundSource. Ground truth is not
// available over the network.
type NetSource struct {
	client RoundClient
}

// NewNetSource wraps a connected PGSP client; its rounds pass through in
// O(active).
func NewNetSource(c RoundClient) *NetSource { return &NetSource{client: c} }

// NextRound implements RoundSource.
func (s *NetSource) NextRound() ([]*codec.Packet, error) { return s.client.NextRound() }

// NextRoundSparse implements SparseRoundSource.
func (s *NetSource) NextRoundSparse() (*codec.Round, error) { return s.client.NextRoundSparse() }

// Truth implements RoundSource: network sources have none.
func (s *NetSource) Truth(i int) (codec.Scene, bool) { return codec.Scene{}, false }
