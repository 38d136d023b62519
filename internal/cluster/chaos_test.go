package cluster

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestParseChaosSpec pins the CLI grammar round trip.
func TestParseChaosSpec(t *testing.T) {
	sch, err := ParseChaosSpec(chaosSpecExample, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := ChaosSchedule{
		{After: time.Second, Backend: 0, Action: ChaosPause},
		{After: 2 * time.Second, Backend: 0, Action: ChaosResume},
		{After: 5 * time.Second, Backend: 1, Action: ChaosKill},
		{After: 10 * time.Second, Backend: 2, Action: ChaosSlow, Latency: 50 * time.Millisecond},
	}
	if !reflect.DeepEqual(sch, want) {
		t.Fatalf("parsed %+v, want %+v", sch, want)
	}
}

// chaosSpecExample is TestParseChaosSpec's schedule over 3 backends, with
// spaces around events and out of time order.
const chaosSpecExample = "kill@5s:1, slow@10s:2:50ms ,pause@1s:0,resume@2s:0"

// chaosSpecErrors are TestParseChaosSpecErrors' cases over 3 backends.
var chaosSpecErrors = []struct {
	spec string
	frag string
}{
	{"explode@5s:0", "unknown action"},
	{"kill@5s", "want ACTION@AFTER:BACKEND"},
	{"kill:0", "want ACTION@AFTER:BACKEND"},
	{"kill@5s:7", "out of range"},
	{"kill@5s:-1", "out of range"},
	{"kill@nope:0", "bad time"},
	{"slow@5s:0", "slow wants"},
	{"slow@5s:0:fast", "bad latency"},
}

// TestParseChaosSpecErrors pins each diagnostic: unknown action, missing
// backend, backend out of range, bad duration, slow without latency.
func TestParseChaosSpecErrors(t *testing.T) {
	for _, c := range chaosSpecErrors {
		if _, err := ParseChaosSpec(c.spec, 3); err == nil {
			t.Errorf("spec %q: want error", c.spec)
		} else if !strings.Contains(err.Error(), c.frag) {
			t.Errorf("spec %q: error %q, want fragment %q", c.spec, err, c.frag)
		}
	}
	if sch, err := ParseChaosSpec("", 3); err != nil || len(sch) != 0 {
		t.Errorf("empty spec: got (%v, %v), want empty schedule", sch, err)
	}
}

// FuzzParseChaosSpec feeds the -chaos grammar arbitrary specs and backend
// counts, seeded from the parser tests' cases. No input may panic, and an
// accepted schedule has every backend in range, a known action, no negative
// time or latency, and its events sorted by time.
func FuzzParseChaosSpec(f *testing.F) {
	f.Add(chaosSpecExample, uint8(3))
	f.Add("", uint8(3))
	f.Add("kill@3s:1", uint8(3))
	f.Add("slow@0s:0:0s,resume@1h:1", uint8(2))
	for _, c := range chaosSpecErrors {
		f.Add(c.spec, uint8(3))
	}
	f.Fuzz(func(t *testing.T, spec string, backends uint8) {
		sch, err := ParseChaosSpec(spec, int(backends))
		if err != nil {
			return
		}
		for i, ev := range sch {
			switch {
			case ev.Backend < 0 || ev.Backend >= int(backends):
				t.Fatalf("spec %q: event %d targets backend %d of %d", spec, i, ev.Backend, backends)
			case ev.Action >= numChaosActions:
				t.Fatalf("spec %q: event %d has action %d", spec, i, ev.Action)
			case ev.After < 0 || ev.Latency < 0:
				t.Fatalf("spec %q: event %d at %v with latency %v", spec, i, ev.After, ev.Latency)
			case i > 0 && ev.After < sch[i-1].After:
				t.Fatalf("spec %q: event %d at %v follows one at %v", spec, i, ev.After, sch[i-1].After)
			}
		}
	})
}

// TestGenerateChaosDeterministic pins the schedule contract: same seed same
// schedule, different seed different schedule, events sorted, kills never
// target backend 0, pauses and slows come in matched start/stop pairs.
func TestGenerateChaosDeterministic(t *testing.T) {
	a := GenerateChaos(42, 4, 10*time.Second, 2, 2, 2, 40*time.Millisecond)
	b := GenerateChaos(42, 4, 10*time.Second, 2, 2, 2, 40*time.Millisecond)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must generate the same schedule")
	}
	c := GenerateChaos(43, 4, 10*time.Second, 2, 2, 2, 40*time.Millisecond)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should generate different schedules")
	}

	kills, pauses, resumes, slows := 0, 0, 0, 0
	for i, ev := range a {
		if i > 0 && ev.After < a[i-1].After {
			t.Fatalf("schedule not sorted at %d: %v after %v", i, ev.After, a[i-1].After)
		}
		if ev.After < 0 || ev.After > 10*time.Second+10*time.Second/8 {
			t.Fatalf("event %d outside the window: %v", i, ev.After)
		}
		switch ev.Action {
		case ChaosKill:
			kills++
			if ev.Backend == 0 {
				t.Fatal("generated schedules must never kill backend 0")
			}
		case ChaosPause:
			pauses++
		case ChaosResume:
			resumes++
		case ChaosSlow:
			slows++
		}
	}
	if kills != 2 || pauses != 2 || resumes != 2 || slows != 4 {
		t.Fatalf("event mix kills=%d pauses=%d resumes=%d slows=%d, want 2/2/2/4", kills, pauses, resumes, slows)
	}
}

// TestChaosActionString pins the stable names the spec grammar uses.
func TestChaosActionString(t *testing.T) {
	for a, want := range map[ChaosAction]string{ChaosKill: "kill", ChaosPause: "pause", ChaosResume: "resume", ChaosSlow: "slow"} {
		if got := a.String(); got != want {
			t.Errorf("ChaosAction(%d).String() = %q, want %q", a, got, want)
		}
	}
}
