package codec

import "testing"

func TestRoundValidate(t *testing.T) {
	p := &Packet{}
	valid := &Round{M: 8, IDs: []int32{0, 3, 7}, Pkts: []*Packet{p, p, p}}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid round rejected: %v", err)
	}
	cases := map[string]*Round{
		"length mismatch": {M: 8, IDs: []int32{0, 1}, Pkts: []*Packet{p}},
		"out of range":    {M: 8, IDs: []int32{8}, Pkts: []*Packet{p}},
		"negative":        {M: 8, IDs: []int32{-1}, Pkts: []*Packet{p}},
		"duplicate":       {M: 8, IDs: []int32{2, 2}, Pkts: []*Packet{p, p}},
		"descending":      {M: 8, IDs: []int32{3, 1}, Pkts: []*Packet{p, p}},
		"nil packet":      {M: 8, IDs: []int32{4}, Pkts: []*Packet{nil}},
	}
	for name, r := range cases {
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid round", name)
		}
	}
}

func TestRoundFromDenseRoundTrip(t *testing.T) {
	dense := make([]*Packet, 10)
	for _, i := range []int{1, 4, 9} {
		dense[i] = &Packet{StreamID: i}
	}
	var r Round
	r.FromDense(dense)
	if r.Len() != 3 || r.M != 10 {
		t.Fatalf("FromDense: len %d m %d", r.Len(), r.M)
	}
	if err := r.Validate(); err != nil {
		t.Fatalf("FromDense produced invalid round: %v", err)
	}
	for i, p := range dense {
		if r.Get(int32(i)) != p {
			t.Fatalf("Get(%d) = %v, want the dense entry %v", i, r.Get(int32(i)), p)
		}
	}
	if got := r.Get(4); got == nil || got.StreamID != 4 {
		t.Fatalf("Get(4) = %v", got)
	}
	if r.Get(5) != nil || r.Find(0) != -1 {
		t.Fatalf("idle lookups should miss")
	}
	r.Reset(6)
	if r.Len() != 0 || r.M != 6 {
		t.Fatalf("Reset: len %d m %d", r.Len(), r.M)
	}
}
