package routing

// newIslands finds the components of the augmented graph and maps every node
// with edges outside the outer row's component to its component's root.
// Churn repair builds routers over graphs whose crashed nodes have no edges,
// and a ring of crashed nodes can cut off such an island. The map is nil when
// the augmented graph is connected; nodes without edges are not in it.
func (r *Router) newIslands() map[int32]int32 {
	n := r.g.N()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for f := 0; f < r.faces.Rows(); f++ {
		row := r.faces.Row(f)
		a := find(row[0])
		for _, v := range row[1:] {
			if b := find(v); b != a {
				parent[b] = a
			}
		}
	}
	main := int32(-1)
	if r.outer >= 0 {
		main = find(r.faces.Dat[r.faces.Off[r.outer]])
	}
	var islands map[int32]int32
	for v := int32(0); v < int32(n); v++ {
		if r.anchor[v] < 0 {
			continue
		}
		if c := find(v); c != main {
			if islands == nil {
				islands = map[int32]int32{}
			}
			islands[v] = c
		}
	}
	return islands
}

// connected reports whether s ≠ t lie in one component of the augmented
// graph. Where they do not, they lie in different components of g, which
// the augmented graph contains.
func (r *Router) connected(s, t NodeID) bool {
	if r.anchor[s] < 0 || r.anchor[t] < 0 {
		return false
	}
	cs, sIsland := r.islands[int32(s)]
	ct, tIsland := r.islands[int32(t)]
	return sIsland == tIsland && cs == ct
}
