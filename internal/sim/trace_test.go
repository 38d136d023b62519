package sim

import (
	"strings"
	"testing"

	"hybridroute/internal/trace"
)

// TestSimEmitsTraceEvents checks the simulator's event stream against its own
// counters: one send event per message sent, one deliver event per envelope
// handed to a protocol, one round event per executed round.
func TestSimEmitsTraceEvents(t *testing.T) {
	const n = 6
	g := lineGraph(n, 0.9)
	s := New(g, Config{Strict: true})
	tr := trace.New(0)
	s.SetTracer(tr)
	if s.Tracer() != tr {
		t.Fatal("Tracer() must return the installed recorder")
	}
	s.SetAllProtos(func(v NodeID) Proto {
		return ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
			if v == 0 && round == 0 {
				ctx.SendAdHoc(1, floodMsg{1})
			}
			for _, env := range inbox {
				m := env.Msg.(floodMsg)
				if int(v)+1 < n {
					ctx.SendAdHoc(v+1, floodMsg{m.hop + 1})
				}
			}
		})
	})
	rounds, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	counts := tr.CountByKind()
	sent := 0
	for v := 0; v < n; v++ {
		sent += s.Counters(NodeID(v)).AdHocMsgs
	}
	if counts[trace.KindSend.String()] != sent {
		t.Errorf("send events %d != messages sent %d", counts[trace.KindSend.String()], sent)
	}
	if counts[trace.KindDeliver.String()] != sent {
		t.Errorf("deliver events %d != messages delivered %d (lossless run)", counts[trace.KindDeliver.String()], sent)
	}
	if counts[trace.KindRound.String()] != rounds {
		t.Errorf("round events %d != rounds %d", counts[trace.KindRound.String()], rounds)
	}
}

// TestSimEmitsDropEvents checks that a dropped send produces both a send and
// a drop event, and no deliver event.
func TestSimEmitsDropEvents(t *testing.T) {
	g := lineGraph(2, 0.9)
	s := New(g, Config{})
	if err := s.SetFaults(FaultConfig{AdHocLoss: 1, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	tr := trace.New(0)
	s.SetTracer(tr)
	s.SetProto(0, ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
		if round == 0 {
			ctx.SendAdHoc(1, floodMsg{})
		}
	}))
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	counts := tr.CountByKind()
	if counts[trace.KindSend.String()] != 1 || counts[trace.KindDrop.String()] != 1 {
		t.Errorf("want 1 send + 1 drop event, got %v", counts)
	}
	if counts[trace.KindDeliver.String()] != 0 {
		t.Errorf("a dropped message must not produce a deliver event, got %v", counts)
	}
}

// TestRunMaxRoundsReturnsPartialCount pins the MaxRounds abort semantics the
// transport layer relies on: the error is reported alongside the genuine
// number of rounds executed, and the per-node counters still hold the cost of
// the aborted run — callers must not treat the report as empty.
func TestRunMaxRoundsReturnsPartialCount(t *testing.T) {
	g := lineGraph(2, 0.9)
	s := New(g, Config{})
	s.SetMaxRounds(7)
	s.SetAllProtos(func(v NodeID) Proto {
		return ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
			if v == 0 && round == 0 {
				ctx.SendAdHoc(1, floodMsg{})
			}
			for range inbox {
				ctx.SendAdHoc(1-v, floodMsg{})
			}
		})
	})
	rounds, err := s.Run()
	if err == nil || !strings.Contains(err.Error(), "MaxRounds") {
		t.Fatalf("expected MaxRounds error, got %v", err)
	}
	if rounds != 7 {
		t.Errorf("partial round count = %d, want 7", rounds)
	}
	if s.Rounds() != 7 {
		t.Errorf("Rounds() = %d after abort, want 7", s.Rounds())
	}
	sent := s.Counters(0).AdHocMsgs + s.Counters(1).AdHocMsgs
	if sent == 0 {
		t.Error("counters must retain the messages moved before the abort")
	}
}

// TestResetCountersIsolatesRepetitions pins the satellite bugfix: everything
// feeding MaxCounters/TotalCounters — message counters, the round counter AND
// the fault-injection drop counters — is zeroed between repetitions, so a
// repetition reproduces a fresh simulator's numbers exactly. Storage, as
// preprocessing state, survives.
func TestResetCountersIsolatesRepetitions(t *testing.T) {
	cfg := FaultConfig{AdHocLoss: 0.5, Seed: 11}
	proto := func(s *Sim) {
		s.SetProto(0, ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
			if round == 0 {
				ctx.SetStorage(17)
			}
			if round < 50 {
				ctx.SendAdHoc(1, floodMsg{})
				ctx.KeepAlive()
			}
		}))
	}
	run := func(s *Sim) (Counters, DropCounters, int) {
		proto(s)
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return s.Counters(0), s.Dropped(), s.Rounds()
	}

	fresh := New(lineGraph(2, 0.9), Config{})
	if err := fresh.SetFaults(cfg); err != nil {
		t.Fatal(err)
	}
	wantC, wantD, wantR := run(fresh)
	if wantD.AdHocDropped == 0 {
		t.Fatal("test needs drops to be meaningful")
	}

	// Two repetitions on one simulator, separated by ResetCounters (and
	// SetFaults to replay the same drop stream).
	s := New(lineGraph(2, 0.9), Config{})
	if err := s.SetFaults(cfg); err != nil {
		t.Fatal(err)
	}
	run(s)
	s.ResetCounters()
	if d := s.Dropped(); d.AdHocDropped != 0 || d.LongDropped != 0 {
		t.Fatalf("drop counters must reset between repetitions, got %+v", d)
	}
	if s.Counters(0).StorageWords != 17 {
		t.Error("storage must survive the reset")
	}
	if err := s.SetFaults(cfg); err != nil {
		t.Fatal(err)
	}
	gotC, gotD, gotR := run(s)
	if gotC != wantC || gotD != wantD || gotR != wantR {
		t.Errorf("repetition differs from fresh run:\n got %+v %+v rounds=%d\nwant %+v %+v rounds=%d",
			gotC, gotD, gotR, wantC, wantD, wantR)
	}
}
