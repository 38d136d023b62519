package expt

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runExpt(t *testing.T, fn func(Options) (*Result, error), id string) *Result {
	t.Helper()
	r, err := fn(Options{Quick: true, Seed: 1})
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	if r.ID != id {
		t.Errorf("ID = %s, want %s", r.ID, id)
	}
	if r.Table == nil || !strings.Contains(r.Table.String(), "-") {
		t.Errorf("%s: missing table", id)
	}
	if !r.Pass {
		t.Errorf("%s: claim check failed\n%s\nnotes: %v", id, r.Table, r.Notes)
	}
	return r
}

func TestE1(t *testing.T)  { runExpt(t, E1, "E1") }
func TestE2(t *testing.T)  { runExpt(t, E2, "E2") }
func TestE3(t *testing.T)  { runExpt(t, E3, "E3") }
func TestE4(t *testing.T)  { runExpt(t, E4, "E4") }
func TestE5(t *testing.T)  { runExpt(t, E5, "E5") }
func TestE6(t *testing.T)  { runExpt(t, E6, "E6") }
func TestE7(t *testing.T)  { runExpt(t, E7, "E7") }
func TestE8(t *testing.T)  { runExpt(t, E8, "E8") }
func TestE9(t *testing.T)  { runExpt(t, E9, "E9") }
func TestE10(t *testing.T) { runExpt(t, E10, "E10") }
func TestE11(t *testing.T) { runExpt(t, E11, "E11") }
func TestE12(t *testing.T) { runExpt(t, E12, "E12") }
func TestE13(t *testing.T) { runExpt(t, E13, "E13") }
func TestE14(t *testing.T) { runExpt(t, E14, "E14") }
func TestE16(t *testing.T) { runExpt(t, E16, "E16") }
func TestE17(t *testing.T) { runExpt(t, E17, "E17") }
func TestE18(t *testing.T) { runExpt(t, E18, "E18") }
func TestE20(t *testing.T) { runExpt(t, E20, "E20") }
func TestE22(t *testing.T) { runExpt(t, E22, "E22") }

func TestE19(t *testing.T) {
	dir := t.TempDir()
	r, err := E19(Options{Quick: true, Seed: 1, TraceDir: dir})
	if err != nil {
		t.Fatalf("E19: %v", err)
	}
	if !r.Pass {
		t.Errorf("E19: claim check failed\n%s\nnotes: %v", r.Table, r.Notes)
	}
	blob, err := os.ReadFile(filepath.Join(dir, "E19_churn.json"))
	if err != nil {
		t.Fatalf("E19 artifact: %v", err)
	}
	for _, want := range []string{"rows", "metrics", "membership_events", "hybridroute_sim_crashes_total"} {
		if !strings.Contains(string(blob), want) {
			t.Errorf("E19_churn.json missing %q", want)
		}
	}
}
