package sim

import (
	"strings"
	"testing"

	"hybridroute/internal/geom"
	"hybridroute/internal/udg"
)

func lineGraph(n int, spacing float64) *udg.Graph {
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(i)*spacing, 0)
	}
	return udg.Build(pts, 1)
}

// floodMsg floods a token along the chain.
type floodMsg struct{ hop int }

func TestFloodTakesNMinusOneRounds(t *testing.T) {
	const n = 10
	g := lineGraph(n, 0.9)
	s := New(g, Config{Strict: true})
	reached := make([]bool, n)

	s.SetAllProtos(func(v NodeID) Proto {
		return ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
			if v == 0 && round == 0 {
				reached[0] = true
				ctx.SendAdHoc(1, floodMsg{1})
			}
			for _, env := range inbox {
				m := env.Msg.(floodMsg)
				if !reached[v] {
					reached[v] = true
					if int(v)+1 < n {
						ctx.SendAdHoc(v+1, floodMsg{m.hop + 1})
					}
				}
			}
		})
	})
	rounds, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	for v, r := range reached {
		if !r {
			t.Fatalf("node %d never reached", v)
		}
	}
	// Message from node i sent in round i is delivered in round i+1; the
	// last delivery happens in round n-1, and quiescence is detected with
	// one further empty round.
	if rounds != n+1 {
		t.Errorf("rounds = %d, want %d", rounds, n+1)
	}
}

func TestStrictAdHocRejectsNonNeighbour(t *testing.T) {
	g := lineGraph(3, 2.0) // no edges
	s := New(g, Config{Strict: true})
	s.SetProto(0, ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
		if round == 0 {
			ctx.SendAdHoc(1, floodMsg{})
		}
	}))
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "non-neighbour") {
		t.Fatalf("expected non-neighbour error, got %v", err)
	}
}

func TestStrictLongRangeRequiresKnowledge(t *testing.T) {
	g := lineGraph(3, 2.0) // disconnected: nobody knows anybody
	s := New(g, Config{Strict: true})
	s.SetProto(0, ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
		if round == 0 {
			ctx.SendLong(2, floodMsg{})
		}
	}))
	if _, err := s.Run(); err == nil || !strings.Contains(err.Error(), "unknown ID") {
		t.Fatalf("expected unknown-ID error, got %v", err)
	}
}

func TestTeachAllowsLongRange(t *testing.T) {
	g := lineGraph(3, 2.0)
	s := New(g, Config{Strict: true})
	s.Teach(0, 2)
	got := false
	s.SetProto(0, ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
		if round == 0 {
			ctx.SendLong(2, floodMsg{})
		}
	}))
	s.SetProto(2, ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
		if len(inbox) > 0 {
			got = true
		}
	}))
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Error("long-range message not delivered")
	}
}

// introMsg carries a node ID for ID-introduction.
type introMsg struct{ id NodeID }

func (m introMsg) CarriedIDs() []NodeID { return []NodeID{m.id} }
func (m introMsg) Words() int           { return 2 }

func TestIDIntroduction(t *testing.T) {
	// 0-1-2 chain: 1 knows both 0 and 2 and introduces 2 to 0; then 0 may
	// message 2 long-range.
	g := lineGraph(3, 0.9)
	s := New(g, Config{Strict: true})
	if s.Knows(0, 2) {
		t.Fatal("0 should not know 2 initially")
	}
	delivered := false
	s.SetProto(1, ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
		if round == 0 {
			ctx.SendAdHoc(0, introMsg{id: 2})
		}
	}))
	s.SetProto(0, ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
		for range inbox {
			ctx.SendLong(2, floodMsg{})
		}
	}))
	s.SetProto(2, ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
		if len(inbox) > 0 {
			delivered = true
		}
	}))
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Knows(0, 2) {
		t.Error("ID introduction failed")
	}
	if !delivered {
		t.Error("post-introduction long-range message not delivered")
	}
}

func TestSenderLearnedOnDelivery(t *testing.T) {
	g := lineGraph(2, 0.9)
	s := New(g, Config{Strict: true})
	// Node 1's knowledge of 0 comes from the initial neighbourhood, but
	// delivery should also mark senders known for non-neighbour long sends.
	s.Teach(0, 1)
	s.SetProto(0, ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
		if round == 0 {
			ctx.SendLong(1, floodMsg{})
		}
	}))
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !s.Knows(1, 0) {
		t.Error("receiver must know the sender after delivery")
	}
}

func TestCountersSplitByLinkType(t *testing.T) {
	g := lineGraph(4, 0.9)
	s := New(g, Config{Strict: true})
	s.Teach(0, 3)
	s.SetProto(0, ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
		if round == 0 {
			ctx.SendAdHoc(1, floodMsg{})     // 1 word
			ctx.SendLong(3, introMsg{id: 1}) // 2 words
		}
	}))
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	c := s.Counters(0)
	if c.AdHocMsgs != 1 || c.AdHocWords != 1 {
		t.Errorf("adhoc counters = %+v", c)
	}
	if c.LongMsgs != 1 || c.LongWords != 2 {
		t.Errorf("long counters = %+v", c)
	}
	if c.Total() != 2 || c.TotalWords() != 3 {
		t.Errorf("totals = %d/%d", c.Total(), c.TotalWords())
	}
	tot := s.TotalCounters()
	if tot.Total() != 2 {
		t.Errorf("global total = %d", tot.Total())
	}
	max := s.MaxCounters()
	if max.LongWords != 2 {
		t.Errorf("max long words = %d", max.LongWords)
	}
}

func TestResetCountersKeepsStorageAndKnowledge(t *testing.T) {
	g := lineGraph(2, 0.9)
	s := New(g, Config{})
	s.SetProto(0, ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
		if round == 0 {
			ctx.SetStorage(42)
			ctx.SendAdHoc(1, floodMsg{})
		}
	}))
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	s.ResetCounters()
	c := s.Counters(0)
	if c.AdHocMsgs != 0 {
		t.Error("message counters must reset")
	}
	if c.StorageWords != 42 {
		t.Error("storage must survive reset")
	}
	if s.Rounds() != 0 {
		t.Error("round counter must reset")
	}
	if !s.Knows(0, 1) {
		t.Error("knowledge must survive reset")
	}
}

func TestMaxRoundsGuard(t *testing.T) {
	g := lineGraph(2, 0.9)
	s := New(g, Config{})
	s.SetMaxRounds(5)
	// Ping-pong forever.
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
	if _, err := s.Run(); err == nil {
		t.Fatal("expected MaxRounds error")
	}
}

func TestInvalidTarget(t *testing.T) {
	g := lineGraph(2, 0.9)
	s := New(g, Config{})
	s.SetProto(0, ProtoFunc(func(ctx *Context, round int, inbox []Envelope) {
		if round == 0 {
			ctx.SendLong(99, floodMsg{})
		}
	}))
	if _, err := s.Run(); err == nil {
		t.Fatal("expected invalid-ID error")
	}
}

func TestQuiescenceWithNoProtocols(t *testing.T) {
	g := lineGraph(5, 0.9)
	s := New(g, Config{})
	rounds, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 1 {
		t.Errorf("idle network should quiesce after 1 round, got %d", rounds)
	}
}
