package domset

import (
	"math"
	"testing"
	"testing/quick"

	"hybridroute/internal/geom"
	"hybridroute/internal/sim"
	"hybridroute/internal/udg"
)

// ringSim builds a k-node ring embedded on a circle with unit-disk edges
// between ring neighbours and returns the sim plus the ring adjacency.
func ringSim(k int) (*sim.Sim, map[sim.NodeID][]sim.NodeID) {
	pts := make([]geom.Point, k)
	radius := float64(k) * 0.5 / (2 * math.Pi)
	seq := make([]sim.NodeID, k)
	for i := 0; i < k; i++ {
		ang := 2 * math.Pi * float64(i) / float64(k)
		pts[i] = geom.Pt(radius*math.Cos(ang), radius*math.Sin(ang))
		seq[i] = sim.NodeID(i)
	}
	chord := 2 * radius * math.Sin(math.Pi/float64(k))
	g := udg.Build(pts, chord*1.2)
	s := sim.New(g, sim.Config{Strict: true})
	return s, RingAdj(seq)
}

func TestRunOnRings(t *testing.T) {
	for _, k := range []int{3, 4, 7, 16, 60, 200} {
		s, adj := ringSim(k)
		ds, err := Run(s, adj, 42)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !IsDominatingSet(adj, ds) {
			t.Fatalf("k=%d: not dominating", k)
		}
		opt := (k + 2) / 3
		if len(ds) > 3*opt+2 {
			t.Errorf("k=%d: ds size %d too far above optimum %d", k, len(ds), opt)
		}
	}
}

func TestRunRoundsLogarithmic(t *testing.T) {
	for _, k := range []int{32, 128, 512} {
		s, adj := ringSim(k)
		if _, err := Run(s, adj, 7); err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		budget := phaseLen * (4*int(math.Log2(float64(k))) + 20)
		if s.Rounds() > budget {
			t.Errorf("k=%d: %d rounds exceeds budget %d", k, s.Rounds(), budget)
		}
	}
}

func TestRunDeterministicForSeed(t *testing.T) {
	s1, adj1 := ringSim(40)
	ds1, err := Run(s1, adj1, 99)
	if err != nil {
		t.Fatal(err)
	}
	s2, adj2 := ringSim(40)
	ds2, err := Run(s2, adj2, 99)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds1) != len(ds2) {
		t.Fatalf("sizes differ: %d vs %d", len(ds1), len(ds2))
	}
	for v := range ds1 {
		if !ds2[v] {
			t.Fatalf("memberships differ at %d", v)
		}
	}
}

func TestRunOnPathSubset(t *testing.T) {
	// A bay-area segment: DS over a sub-path of the ring only.
	s, _ := ringSim(30)
	seq := make([]sim.NodeID, 12)
	for i := range seq {
		seq[i] = sim.NodeID(i)
	}
	adj := PathAdj(seq)
	ds, err := Run(s, adj, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !IsDominatingSet(adj, ds) {
		t.Fatal("not dominating")
	}
}

func TestRunSingleVertex(t *testing.T) {
	s, _ := ringSim(3)
	adj := map[sim.NodeID][]sim.NodeID{1: nil}
	ds, err := Run(s, adj, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ds[1] {
		t.Fatal("isolated vertex must dominate itself")
	}
}

func TestRunEmpty(t *testing.T) {
	s, _ := ringSim(3)
	ds, err := Run(s, nil, 1)
	if err != nil || len(ds) != 0 {
		t.Fatalf("empty graph: ds=%v err=%v", ds, err)
	}
}

func TestIsDominatingSet(t *testing.T) {
	adj := map[sim.NodeID][]sim.NodeID{
		0: {1}, 1: {0, 2}, 2: {1},
	}
	if !IsDominatingSet(adj, map[sim.NodeID]bool{1: true}) {
		t.Error("center dominates the path")
	}
	if IsDominatingSet(adj, map[sim.NodeID]bool{0: true}) {
		t.Error("end vertex does not dominate the far end")
	}
	if !IsDominatingSet(adj, map[sim.NodeID]bool{0: true, 2: true}) {
		t.Error("both ends dominate")
	}
	if IsDominatingSet(adj, map[sim.NodeID]bool{}) {
		t.Error("empty set dominates nothing")
	}
}

func TestPathAdjAndRingAdj(t *testing.T) {
	seq := []sim.NodeID{5, 9, 2}
	p := PathAdj(seq)
	if len(p[5]) != 1 || len(p[9]) != 2 || len(p[2]) != 1 {
		t.Errorf("path adjacency wrong: %v", p)
	}
	r := RingAdj(seq)
	for _, v := range seq {
		if len(r[v]) != 2 {
			t.Errorf("ring degree of %d = %d", v, len(r[v]))
		}
	}
	one := RingAdj([]sim.NodeID{3})
	if len(one) != 1 {
		t.Errorf("singleton ring: %v", one)
	}
}

func TestUniformInRange(t *testing.T) {
	f := func(a, b uint64) bool {
		u := uniform(a, b)
		return u >= 0 && u < 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMixAvalanche(t *testing.T) {
	// Adjacent inputs should yield very different outputs.
	same := 0
	for i := uint64(0); i < 64; i++ {
		if mix(1, i)&1 == mix(1, i+1)&1 {
			same++
		}
	}
	if same < 16 || same > 48 {
		t.Errorf("low bit correlation suspicious: %d/64", same)
	}
}

func BenchmarkDomSetRing256(b *testing.B) {
	for i := 0; i < b.N; i++ {
		s, adj := ringSim(256)
		if _, err := Run(s, adj, 1); err != nil {
			b.Fatal(err)
		}
	}
}
