package udg

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"hybridroute/internal/geom"
)

// mapIndex is the historical cell index, kept as the oracle of the
// map-free one: one Go map entry and one slice per occupied cell.
type mapIndex struct {
	cell  float64
	cells map[[2]int][]int
}

func newMapIndex(pts []geom.Point, r float64) *mapIndex {
	idx := &mapIndex{cell: r, cells: make(map[[2]int][]int, len(pts))}
	for i, p := range pts {
		k := idx.key(p)
		idx.cells[k] = append(idx.cells[k], i)
	}
	return idx
}

func (idx *mapIndex) key(p geom.Point) [2]int {
	return [2]int{int(math.Floor(p.X / idx.cell)), int(math.Floor(p.Y / idx.cell))}
}

// rows is the historical Build: per point, its 3x3 cell scan dx-major, then
// dy, then insertion order within a cell.
func (idx *mapIndex) rows(pts []geom.Point, r float64) [][]NodeID {
	out := make([][]NodeID, len(pts))
	for i, p := range pts {
		k := idx.key(p)
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range idx.cells[[2]int{k[0] + dx, k[1] + dy}] {
					if j != i && p.Dist2(pts[j]) <= r*r {
						out[i] = append(out[i], NodeID(j))
					}
				}
			}
		}
	}
	return out
}

// inBox is the historical ForNodesInBox sweep: kx outer, ky inner.
func (idx *mapIndex) inBox(lo, hi geom.Point) []NodeID {
	var out []NodeID
	kx0 := int(math.Floor(lo.X / idx.cell))
	ky0 := int(math.Floor(lo.Y / idx.cell))
	kx1 := int(math.Floor(hi.X / idx.cell))
	ky1 := int(math.Floor(hi.Y / idx.cell))
	for kx := kx0; kx <= kx1; kx++ {
		for ky := ky0; ky <= ky1; ky++ {
			for _, j := range idx.cells[[2]int{kx, ky}] {
				out = append(out, NodeID(j))
			}
		}
	}
	return out
}

// TestGridIndexMatchesMap pins the map-free cell index to the map index it
// replaced: every UDG row and every ForNodesInBox sequence must be
// identical, on negative coordinates, points exactly on cell lines,
// duplicate points and a sparse set spanning 10⁹, where the index must
// still hold O(n) words.
func TestGridIndexMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	type set struct {
		name  string
		pts   []geom.Point
		r     float64
		boxes float64 // side of the random query boxes
	}
	var sets []set

	uniform := randomPoints(rng, 3000, 30, 30)
	for i := range uniform {
		uniform[i] = uniform[i].Sub(geom.Pt(15, 15))
	}
	sets = append(sets, set{"negative", uniform, 1, 6})

	// Spacing r/2 puts every other lattice line exactly on a cell line.
	var lattice []geom.Point
	for i := -20; i <= 20; i++ {
		for j := -20; j <= 20; j++ {
			lattice = append(lattice, geom.Pt(float64(i)*0.25, float64(j)*0.25))
		}
	}
	sets = append(sets, set{"cell-lines", lattice, 0.5, 3})

	var dups []geom.Point
	for i := 0; i < 400; i++ {
		p := geom.Pt(float64(rng.Intn(12))*0.5, float64(rng.Intn(12))*0.5)
		dups = append(dups, p, p)
	}
	rng.Shuffle(len(dups), func(i, j int) { dups[i], dups[j] = dups[j], dups[i] })
	sets = append(sets, set{"duplicates", dups, 1, 4})

	var sparse []geom.Point
	for i := 0; i < 2000; i++ {
		sparse = append(sparse, geom.Pt((rng.Float64()-0.5)*1e9, (rng.Float64()-0.5)*1e9))
		if i%4 == 0 { // some near neighbours, so rows are not all empty
			sparse = append(sparse, sparse[len(sparse)-1].Add(geom.Pt(rng.Float64()-0.5, rng.Float64()-0.5)))
		}
	}
	sets = append(sets, set{"sparse-1e9", sparse, 1, 5})

	for _, s := range sets {
		t.Run(s.name, func(t *testing.T) {
			g := Build(s.pts, s.r)
			ref := newMapIndex(s.pts, s.r)
			want := ref.rows(s.pts, s.r)
			for i := range s.pts {
				if got := g.Neighbors(NodeID(i)); !slices.Equal(got, want[i]) {
					t.Fatalf("row %d = %v, want %v", i, got, want[i])
				}
			}
			for q := 0; q < 500; q++ {
				c := s.pts[rng.Intn(len(s.pts))]
				if q%2 == 1 { // off-point boxes too
					c = c.Add(geom.Pt((rng.Float64()-0.5)*s.boxes, (rng.Float64()-0.5)*s.boxes))
				}
				half := rng.Float64() * s.boxes / 2
				lo, hi := c.Sub(geom.Pt(half, half)), c.Add(geom.Pt(half, half))
				var got []NodeID
				g.ForNodesInBox(lo, hi, func(v NodeID) { got = append(got, v) })
				if want := ref.inBox(lo, hi); !slices.Equal(got, want) {
					t.Fatalf("ForNodesInBox(%v, %v) = %v, want %v", lo, hi, got, want)
				}
			}
			// Every index array is sized by points or occupied cells.
			idx := g.idx
			words := 2*len(idx.keys) + len(idx.start) + len(idx.members) + len(idx.slots)
			if n := len(s.pts); words > 10*n+8 {
				t.Errorf("index holds %d words for %d points", words, n)
			}
		})
	}
}

// BenchmarkBuildGrid builds the UDG of a 10⁴-point bordered grid of spacing
// 0.55 and radius 1, the density of the scale series.
func BenchmarkBuildGrid(b *testing.B) {
	var pts []geom.Point
	for i := 0; i <= 100; i++ {
		for j := 0; j <= 100; j++ {
			pts = append(pts, geom.Pt(float64(i)*0.55, float64(j)*0.55))
		}
	}
	b.Run(fmt.Sprintf("n=%d", len(pts)), func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			Build(pts, 1)
		}
	})
}
