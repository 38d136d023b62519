package main

import (
	"flag"
	"io"
	"strings"
	"testing"

	"hybridroute/internal/sim"
)

// optionCases is the one table of command lines parseOptions must accept
// (wantErr empty) or reject with an error that mentions wantErr. group names
// the rules a row exercises; each group runs as its own test below.
var optionCases = []struct {
	group, name, argv, wantErr string
}{
	// Fault-model values.
	{"fault", "defaults", "", ""},
	{"fault", "faulted run", "-loss 0.05 -crash 2 -retries 3", ""},
	{"fault", "loss only", "-loss 0.05 -retries 3", ""},
	{"fault", "crash only", "-crash 1 -retries 3", ""},
	{"fault", "churn only", "-churn 4 -retries 3", ""},
	{"fault", "churn with loss", "-loss 0.02 -churn 2 -retries 3", ""},
	{"fault", "loss boundary 1", "-loss 1 -retries 3", ""},
	{"fault", "zero retries means default", "-loss 0.01 -retries 0", ""},
	{"fault", "negative loss", "-loss -0.1", "-loss"},
	{"fault", "loss above 1", "-loss 1.5", "-loss"},
	{"fault", "NaN loss", "-loss NaN", "-loss"},
	{"fault", "infinite loss", "-loss Inf", "-loss"},
	{"fault", "negative crash", "-crash -1", "-crash"},
	{"fault", "negative churn", "-churn -1", "-churn"},
	{"fault", "negative retries", "-loss 0.05 -retries -2", "-retries"},

	// Enum-valued flags: an unknown -scenario or -router used to fall
	// through to the default, and an unknown -abstraction only failed at
	// preprocess.
	{"name", "defaults", "-scenario uniform -router hull", ""},
	{"name", "all named", "-scenario maze -router visibility -abstraction bbox", ""},
	{"name", "grid hull abstraction", "-scenario grid -router hull -abstraction hull", ""},
	{"name", "scenario typo", "-scenario mase", "-scenario"},
	{"name", "empty scenario", "-scenario=", "-scenario"},
	{"name", "router typo", "-router hulls", "-router"},
	{"name", "abstraction typo", "-abstraction box", "-abstraction"},

	// Serve mode, and the engine's router.
	{"serve", "off ignores everything", "-batch -loss 0.5 -trace x", ""},
	{"serve", "plain serve", "-serve", ""},
	{"serve", "serve with churn", "-serve -churn 3", ""},
	{"serve", "serve static no churn", "-serve -static", ""},
	{"serve", "serve batch", "-serve -batch", "-batch"},
	{"serve", "serve static churn", "-serve -static -churn 1", "-static"},
	{"serve", "serve loss", "-serve -loss 0.1", "-loss"},
	{"serve", "serve crash", "-serve -crash 2", "-loss/-crash"},
	{"serve", "serve trace", "-serve -trace out.json", "-serve-export"},
	{"serve", "serve visibility", "-serve -router visibility", "-router"},
	{"serve", "batch visibility", "-batch -router visibility", "-batch"},

	// Cluster mode.
	{"cluster", "cluster off", "-cluster 0", ""},
	{"cluster", "plain cluster", "-serve -cluster 3 -replicas 2", ""},
	{"cluster", "single replica", "-serve -cluster 3 -replicas 1", ""},
	{"cluster", "with chaos", "-serve -cluster 3 -replicas 2 -chaos kill@5s:1,slow@10s:2:50ms", ""},
	{"cluster", "with hedge", "-serve -cluster 3 -replicas 2 -hedge 20ms", ""},
	{"cluster", "chaos without cluster", "-chaos kill@5s:0", "-chaos"},
	{"cluster", "hedge without cluster", "-hedge 1ms", "-hedge"},
	{"cluster", "negative cluster", "-serve -cluster -1", "-cluster"},
	{"cluster", "cluster without serve", "-cluster 3 -replicas 2", "-serve"},
	{"cluster", "zero replicas", "-serve -cluster 3 -replicas 0", "-replicas"},
	{"cluster", "replicas above cluster", "-serve -cluster 2 -replicas 3", "-replicas"},
	{"cluster", "negative hedge", "-serve -cluster 2 -replicas 2 -hedge -1s", "-hedge"},
	{"cluster", "cluster with churn", "-serve -cluster 3 -replicas 2 -churn 2", "-churn"},
	{"cluster", "cluster with export", "-serve -cluster 3 -replicas 2 -serve-export m.json", "-serve-export"},
	{"cluster", "bad chaos action", "-serve -cluster 3 -replicas 2 -chaos explode@5s:0", "unknown action"},
	{"cluster", "chaos backend out of range", "-serve -cluster 3 -replicas 2 -chaos kill@5s:3", "out of range"},

	// Counts, flags a mode never reads, and what the parser itself rejects.
	{"parse", "n with city", "-scenario city -n 400", ""},
	{"parse", "two nodes", "-n 2 -queries 1", ""},
	{"parse", "static grid", "-static -scenario grid -n 100000", ""},
	{"parse", "serve smoke", "-serve -n 300 -queries 0 -addr 127.0.0.1:18080", ""},
	{"parse", "cluster smoke", "-serve -cluster 3 -replicas 2 -n 300 -queries 0 -addr 127.0.0.1:18090 -chaos kill@3s:1", ""},
	{"parse", "serve export", "-serve -serve-export m.json", ""},
	{"parse", "batch engine sizes", "-batch -workers 8 -cache 4096", ""},
	{"parse", "serve engine sizes", "-serve -workers 2 -cache 64", ""},
	{"parse", "cluster engine sizes", "-serve -cluster 2 -workers 2 -cache 64", ""},
	{"parse", "adversary retries", "-adversary 0.2 -retries 1", ""},
	{"parse", "one node", "-n 1 -queries 5", "-n"},
	{"parse", "negative n", "-n -5", "-n"},
	{"parse", "negative queries", "-queries -3", "-queries"},
	{"parse", "negative holes", "-holes -1", "-holes"},
	{"parse", "holes with uniform", "-scenario uniform -holes 5", ""},
	{"parse", "holes with city", "-scenario city -holes 2", "-holes"},
	{"parse", "holes with maze", "-scenario maze -holes 0", "-holes"},
	{"parse", "holes with grid", "-static -scenario grid -holes 3", "-holes"},
	{"parse", "addr without serve", "-addr :9090", "-addr"},
	{"parse", "addr with serve off", "-serve=false -addr :9090", "-addr"},
	{"parse", "export without serve", "-serve-export x.json", "-serve-export"},
	{"parse", "replicas without cluster", "-serve -replicas 2", "-replicas"},
	{"parse", "retries without faults", "-retries 3", "-retries"},
	{"parse", "retries in serve", "-serve -churn 2 -retries 3", "-retries"},
	{"parse", "workers one-shot", "-workers 4", "-workers"},
	{"parse", "cache one-shot", "-loss 0.1 -cache 16", "-cache"},
	{"parse", "static loss", "-static -loss 0.1", "-static"},
	{"parse", "static trace", "-static -trace t.json", "-static"},
	{"parse", "serve adversary", "-serve -adversary 0.2", "-adversary"},
	{"parse", "bad adversary", "-adversary 1.5", "-adversary"},
	{"parse", "stray argument", "-n 300 extra -queries 5", "unexpected argument"},
	{"parse", "unknown flag", "-bogus", "not defined"},
	{"parse", "malformed value", "-n x", "invalid value"},
}

// parseArgv runs parseOptions on a space-separated command line, with a
// flag set that returns parse errors instead of exiting.
func parseArgv(argv string) (*options, error) {
	fs := flag.NewFlagSet("hybridroute", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return parseOptions(fs, strings.Fields(argv))
}

func runOptionCases(t *testing.T, group string) {
	for _, tc := range optionCases {
		if tc.group != group {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseArgv(tc.argv)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("%q: unexpected error: %v", tc.argv, err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("%q: error %v does not mention %q", tc.argv, err, tc.wantErr)
			}
		})
	}
}

func TestValidateFlags(t *testing.T)        { runOptionCases(t, "fault") }
func TestValidateNameFlags(t *testing.T)    { runOptionCases(t, "name") }
func TestValidateServeFlags(t *testing.T)   { runOptionCases(t, "serve") }
func TestValidateClusterFlags(t *testing.T) { runOptionCases(t, "cluster") }

// TestParseOptions runs the remaining rows and checks that validate keeps
// what it parsed of -adversary and -chaos.
func TestParseOptions(t *testing.T) {
	runOptionCases(t, "parse")
	o, err := parseArgv("-serve -cluster 3 -chaos kill@5s:1,slow@10s:2:50ms")
	if err != nil || len(o.chaos) != 2 {
		t.Fatalf("chaos: got %v, %v; want two events", o, err)
	}
	o, err = parseArgv("-adversary 0.2,misroute")
	if err != nil || o.advFrac != 0.2 || o.advBehaviors != sim.AdvMisroute || !o.faulted() {
		t.Fatalf("adversary: got %v, %v", o, err)
	}
}

// TestCheckObstacles runs argv rows through parseOptions, builds each
// scenario and checks that an explicit -holes count that does not fit is
// refused, and that the default count is not.
func TestCheckObstacles(t *testing.T) {
	for _, tc := range []struct {
		argv, wantErr string
	}{
		{"-n 300", ""},
		{"-n 300 -holes 2", ""},
		{"-n 300 -holes 0", ""},
		{"-n 300 -holes 50", "-holes 50: only 2 obstacles fit at -n 300"},
		{"-n 300 -holes 3", "-holes 3: only 2 obstacles fit at -n 300"},
		{"-scenario city -n 300", ""},
	} {
		o, err := parseArgv(tc.argv)
		if err != nil {
			t.Fatalf("%q: %v", tc.argv, err)
		}
		sc, err := buildScenario(o.scenario, o.seed, o.n, o.holes)
		if err != nil {
			t.Fatalf("%q: %v", tc.argv, err)
		}
		err = o.checkObstacles(len(sc.Obstacles))
		if tc.wantErr == "" && err != nil || tc.wantErr != "" && (err == nil || err.Error() != tc.wantErr) {
			t.Fatalf("%q: error %v, want %q", tc.argv, err, tc.wantErr)
		}
	}
}

// FuzzParseOptions splits its input into argv. Parsing never panics, and
// every accepted command line meets the invariants validate promises.
func FuzzParseOptions(f *testing.F) {
	for _, tc := range optionCases {
		f.Add(tc.argv)
	}
	f.Fuzz(func(t *testing.T, argv string) {
		o, err := parseArgv(argv)
		if err != nil {
			return
		}
		if !(o.loss >= 0 && o.loss <= 1) || o.n < 2 || o.queries < 0 {
			t.Fatalf("%q: accepted loss %v, n %d, queries %d", argv, o.loss, o.n, o.queries)
		}
		if o.clusterN < 0 || o.clusterN > 0 && (!o.serve || o.replicas < 1 || o.replicas > o.clusterN) {
			t.Fatalf("%q: accepted cluster %d, replicas %d, serve %v", argv, o.clusterN, o.replicas, o.serve)
		}
		if len(o.chaos) > 0 && o.clusterN == 0 || o.static && o.faulted() {
			t.Fatalf("%q: accepted chaos %v, static %v with faults", argv, o.chaos, o.static)
		}
	})
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
