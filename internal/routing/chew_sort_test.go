package routing

import (
	"sort"
	"testing"
)

func TestSortFloats(t *testing.T) {
	xs := []float64{0.7, 0.1, 0.4, 0.4, 0.0, 1.0, 0.2}
	sortFloats(xs)
	if !sort.Float64sAreSorted(xs) {
		t.Fatalf("sortFloats left %v unsorted", xs)
	}
}
