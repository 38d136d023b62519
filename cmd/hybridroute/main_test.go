package main

import (
	"math"
	"strings"
	"testing"
	"time"

	"hybridroute/internal/sim"
)

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name    string
		loss    float64
		crash   int
		churn   int
		retries int
		wantErr string // empty means valid
	}{
		{name: "defaults", retries: 3},
		{name: "faulted run", loss: 0.05, crash: 2, retries: 3},
		{name: "loss only", loss: 0.05, retries: 3},
		{name: "crash only", crash: 1, retries: 3},
		{name: "churn only", churn: 4, retries: 3},
		{name: "churn with loss", loss: 0.02, churn: 2, retries: 3},
		{name: "loss boundary 1", loss: 1, retries: 3},
		{name: "zero retries means default", loss: 0.01},
		{name: "negative loss", loss: -0.1, wantErr: "-loss"},
		{name: "loss above 1", loss: 1.5, wantErr: "-loss"},
		{name: "NaN loss", loss: math.NaN(), wantErr: "-loss"},
		{name: "infinite loss", loss: math.Inf(1), wantErr: "-loss"},
		{name: "negative crash", crash: -1, wantErr: "-crash"},
		{name: "negative churn", churn: -1, wantErr: "-churn"},
		{name: "negative retries", loss: 0.05, retries: -2, wantErr: "-retries"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.loss, tc.crash, tc.churn, tc.retries)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("expected an error mentioning %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestParseAdversaryFlag(t *testing.T) {
	cases := []struct {
		in        string
		frac      float64
		behaviors sim.AdversaryBehavior
		wantErr   string // empty means valid
	}{
		{in: ""},
		{in: "0.2", frac: 0.2, behaviors: sim.AdvAll},
		{in: "1,all", frac: 1, behaviors: sim.AdvAll},
		{in: "0.5,", frac: 0.5, behaviors: sim.AdvAll},
		{in: "0.2,misroute+forge", frac: 0.2, behaviors: sim.AdvMisroute | sim.AdvForgeAck},
		{in: "0.1,drop+lie", frac: 0.1, behaviors: sim.AdvSelectiveDrop | sim.AdvLieTelemetry},
		{in: "0", wantErr: "must be in (0, 1]"},
		{in: "-0.1", wantErr: "must be in (0, 1]"},
		{in: "1.5", wantErr: "must be in (0, 1]"},
		{in: "NaN", wantErr: "must be in (0, 1]"},
		{in: "nan,misroute", wantErr: "must be in (0, 1]"},
		{in: "Inf", wantErr: "must be in (0, 1]"},
		{in: "x", wantErr: "not a number"},
		{in: ",misroute", wantErr: "not a number"},
		{in: "0.2,teleport", wantErr: "unknown adversary behavior"},
		{in: "0.2,misroute+", wantErr: "unknown adversary behavior"},
	}
	for _, tc := range cases {
		t.Run(tc.in, func(t *testing.T) {
			frac, b, err := parseAdversaryFlag(tc.in)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v does not mention %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if frac != tc.frac || b != tc.behaviors {
				t.Fatalf("got (%v, %v), want (%v, %v)", frac, b, tc.frac, tc.behaviors)
			}
		})
	}
}

// FuzzParseAdversaryFlag checks that every accepted -adversary value names a
// fraction in (0, 1] and a non-empty behavior set that round-trips through
// its string form.
func FuzzParseAdversaryFlag(f *testing.F) {
	for _, s := range []string{"", "0.2", "NaN", "0.2,misroute+forge", "1,all", "0.5,", "-1", "Inf", "1e-400", "0x1p-2,lie"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		frac, b, err := parseAdversaryFlag(s)
		if err != nil || s == "" {
			return
		}
		if !(frac > 0 && frac <= 1) {
			t.Fatalf("%q: accepted fraction %v outside (0, 1]", s, frac)
		}
		if b == 0 || b&^sim.AdvAll != 0 {
			t.Fatalf("%q: accepted behaviors %b outside %b", s, b, sim.AdvAll)
		}
		if back, err := sim.ParseBehaviors(b.String()); err != nil || back != b {
			t.Fatalf("%q: behaviors %v do not round-trip (%v, %v)", s, b, back, err)
		}
	})
}

// TestValidateNameFlags pins the fail-fast behaviour for the enum flags that
// used to be accepted silently: an unknown -scenario or -router fell through
// to the default case, and an unknown -abstraction only failed at preprocess.
func TestValidateNameFlags(t *testing.T) {
	cases := []struct {
		name                  string
		scenario, router, abs string
		wantErr               string
	}{
		{name: "defaults", scenario: "uniform", router: "hull"},
		{name: "all named", scenario: "maze", router: "visibility", abs: "bbox"},
		{name: "grid hull abstraction", scenario: "grid", router: "hull", abs: "hull"},
		{name: "scenario typo", scenario: "mase", router: "hull", wantErr: "-scenario"},
		{name: "empty scenario", scenario: "", router: "hull", wantErr: "-scenario"},
		{name: "router typo", scenario: "uniform", router: "hulls", wantErr: "-router"},
		{name: "abstraction typo", scenario: "uniform", router: "hull", abs: "box", wantErr: "-abstraction"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateNameFlags(tc.scenario, tc.router, tc.abs)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestValidateServeFlags pins the serve-mode combination checks.
func TestValidateServeFlags(t *testing.T) {
	cases := []struct {
		name          string
		serve, static bool
		batch         bool
		churn         int
		loss          float64
		crash         int
		traceFile     string
		router        string
		wantErr       string
	}{
		{name: "off ignores everything", serve: false, batch: true, loss: 0.5, traceFile: "x", router: "weird"},
		{name: "plain serve", serve: true, router: "hull"},
		{name: "serve with churn", serve: true, churn: 3, router: "hull"},
		{name: "serve static no churn", serve: true, static: true, router: "hull"},
		{name: "serve batch", serve: true, batch: true, router: "hull", wantErr: "-batch"},
		{name: "serve static churn", serve: true, static: true, churn: 1, router: "hull", wantErr: "-static"},
		{name: "serve loss", serve: true, loss: 0.1, router: "hull", wantErr: "-loss"},
		{name: "serve crash", serve: true, crash: 2, router: "hull", wantErr: "-loss/-crash"},
		{name: "serve trace", serve: true, traceFile: "out.json", router: "hull", wantErr: "-serve-export"},
		{name: "serve visibility", serve: true, router: "visibility", wantErr: "-router"},
		{name: "batch visibility", batch: true, router: "visibility", wantErr: "-batch"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateServeFlags(tc.serve, tc.static, tc.batch, tc.churn, tc.loss, tc.crash, tc.traceFile, tc.router)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not mention %q", err, tc.wantErr)
			}
		})
	}
}

func TestValidateClusterFlags(t *testing.T) {
	cases := []struct {
		name        string
		serve       bool
		cluster     int
		replicas    int
		chaos       string
		hedge       time.Duration
		churn       int
		serveExport string
		wantErr     string
	}{
		{name: "cluster off", replicas: 2},
		{name: "plain cluster", serve: true, cluster: 3, replicas: 2},
		{name: "single replica", serve: true, cluster: 3, replicas: 1},
		{name: "with chaos", serve: true, cluster: 3, replicas: 2, chaos: "kill@5s:1,slow@10s:2:50ms"},
		{name: "with hedge", serve: true, cluster: 3, replicas: 2, hedge: 20 * time.Millisecond},
		{name: "chaos without cluster", chaos: "kill@5s:0", wantErr: "-chaos"},
		{name: "hedge without cluster", hedge: time.Millisecond, wantErr: "-hedge"},
		{name: "negative cluster", serve: true, cluster: -1, wantErr: "-cluster"},
		{name: "cluster without serve", cluster: 3, replicas: 2, wantErr: "-serve"},
		{name: "zero replicas", serve: true, cluster: 3, replicas: 0, wantErr: "-replicas"},
		{name: "replicas above cluster", serve: true, cluster: 2, replicas: 3, wantErr: "-replicas"},
		{name: "negative hedge", serve: true, cluster: 2, replicas: 2, hedge: -time.Second, wantErr: "-hedge"},
		{name: "cluster with churn", serve: true, cluster: 3, replicas: 2, churn: 2, wantErr: "-churn"},
		{name: "cluster with export", serve: true, cluster: 3, replicas: 2, serveExport: "m.json", wantErr: "-serve-export"},
		{name: "bad chaos action", serve: true, cluster: 3, replicas: 2, chaos: "explode@5s:0", wantErr: "unknown action"},
		{name: "chaos backend out of range", serve: true, cluster: 3, replicas: 2, chaos: "kill@5s:3", wantErr: "out of range"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateClusterFlags(tc.serve, tc.cluster, tc.replicas, tc.chaos, tc.hedge, tc.churn, tc.serveExport)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %v does not mention %q", err, tc.wantErr)
			}
		})
	}
}
