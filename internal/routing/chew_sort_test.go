package routing

import (
	"math/rand"
	"sort"
	"testing"
)

// TestInsertByKeyStable pins the per-face vertex order of the corridor
// chains: inserting vertices one by one through insertByKey yields exactly
// the permutation sort.SliceStable gives on the same keys, many of them equal
// (chain construction depends on equal keys keeping their input order).
func TestInsertByKeyStable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(200)
		vs := make([]NodeID, n)
		keys := map[NodeID]float64{}
		for i, v := range rng.Perm(n) {
			vs[i] = NodeID(v)
			keys[vs[i]] = float64(rng.Intn(10)) // many equal keys
		}
		want := append([]NodeID(nil), vs...)
		sort.SliceStable(want, func(i, j int) bool { return keys[want[i]] < keys[want[j]] })

		var got []NodeID
		var gotKeys []float64
		for _, v := range vs {
			got, gotKeys = insertByKey(got, gotKeys, v, keys[v])
		}
		for i := range want {
			if got[i] != want[i] || gotKeys[i] != keys[want[i]] {
				t.Fatalf("trial %d: position %d holds %d (key %v), sort.SliceStable gives %d",
					trial, i, got[i], gotKeys[i], want[i])
			}
		}
	}
}

func TestSortFloats(t *testing.T) {
	xs := []float64{0.7, 0.1, 0.4, 0.4, 0.0, 1.0, 0.2}
	sortFloats(xs)
	if !sort.Float64sAreSorted(xs) {
		t.Fatalf("sortFloats left %v unsorted", xs)
	}
}
