package core

import (
	"fmt"
	"testing"

	"hybridroute/internal/sim"
	"hybridroute/internal/workload"
)

// TestBuildsAndRepairAgree cross-checks, on seeded random deployments of
// three families, the paths that must give the same answers: the
// distributed Preprocess and PreprocessStatic build the same routing
// state; churn repair depends on the dead set alone, not on the membership
// history that led to it; and recovering every node restores the pristine
// answers. Seeds whose generator finds no connected deployment are skipped.
func TestBuildsAndRepairAgree(t *testing.T) {
	families := []struct {
		name  string
		build func(seed int64) (*workload.Scenario, error)
	}{
		{"obstacles", func(seed int64) (*workload.Scenario, error) {
			obstacles := workload.RandomConvexObstacles(seed, 3, 10, 10, 0.8, 1.5, 2)
			return workload.WithObstacles(seed, 420, 10, 10, 1, obstacles)
		}},
		{"city", func(seed int64) (*workload.Scenario, error) {
			return workload.CityGrid(seed, 2, 2, 2, 2, 1.6, 1, 5.5)
		}},
		{"bordered", func(seed int64) (*workload.Scenario, error) {
			obstacles := workload.RandomConvexObstacles(seed, 3, 10, 10, 0.8, 1.5, 2)
			return workload.BorderedGrid(0.55, 10, 10, 1, obstacles)
		}},
	}
	seeds := []int64{1, 2, 3}
	if testing.Short() {
		seeds = seeds[:1]
	}
	for _, f := range families {
		for _, seed := range seeds {
			t.Run(fmt.Sprintf("%s/seed%d", f.name, seed), func(t *testing.T) {
				sc, err := f.build(seed)
				if err != nil {
					t.Skipf("no connected deployment: %v", err)
				}
				g := sc.Build()
				nw, err := Preprocess(g, Config{Seed: uint64(seed)})
				if err != nil {
					t.Fatal(err)
				}
				static, err := PreprocessStatic(g, Config{})
				if err != nil {
					t.Fatal(err)
				}
				pristine := routeDigest(nw)
				if got := routeDigest(static); got != pristine {
					t.Fatalf("PreprocessStatic digest %s, Preprocess %s", got, pristine)
				}

				a, b := churnVictims(nw)
				step := func(v sim.NodeID, up bool) {
					t.Helper()
					var err error
					if up {
						err = nw.Sim.Recover(v)
					} else {
						err = nw.Sim.Crash(v)
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				step(a, false)
				step(b, false)
				step(a, true)
				viaA := routeDigest(nw)
				step(b, true)
				if got := routeDigest(nw); got != pristine {
					t.Fatalf("after recovering %d and %d: digest %s, pristine %s", a, b, got, pristine)
				}
				step(b, false)
				if got := routeDigest(nw); got != viaA {
					t.Fatalf("dead set {%d}: digest %s crashed alone, %s after crashing and recovering %d", b, got, viaA, a)
				}
			})
		}
	}
}

// churnVictims returns two LDel² neighbours on the boundary of the network's
// largest hole, so that crashing both reshapes that hole, or two neighbours
// in the middle of the node range when there is no hole.
func churnVictims(nw *Network) (a, b sim.NodeID) {
	a = sim.NodeID(nw.G.N() / 2)
	largest := 0
	for _, h := range nw.Holes.Holes {
		if len(h.Ring) > largest {
			largest, a = len(h.Ring), h.Ring[0]
		}
	}
	return a, nw.LDel.Neighbors(a)[0]
}
