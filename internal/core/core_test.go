package core

import (
	"testing"
	"testing/quick"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/sim"
)

func TestRateLimitBurstThenSustained(t *testing.T) {
	rl := NewRateLimit(4, 10) // 4 burst, 1 per 10 ticks
	now := sim.Time(0)
	// Burst drains freely.
	for i := 0; i < 4; i++ {
		if w := rl.Admit(now); w != 0 {
			t.Fatalf("burst request %d delayed by %d", i, w)
		}
	}
	// The fifth must wait ~10 ticks; a sixth queues behind it.
	w := rl.Admit(now)
	if w == 0 || w > 11 {
		t.Fatalf("post-burst wait = %d, want ~10", w)
	}
	w2 := rl.Admit(now)
	if w2 <= w || w2 > 21 {
		t.Fatalf("queued wait = %d, want ~20 (> %d)", w2, w)
	}
}

func TestRateLimitQueueSpacing(t *testing.T) {
	// A burst of simultaneous requests is served at the configured rate:
	// the n-th waits roughly n*period (queue semantics).
	rl := NewRateLimit(1, 100)
	var last sim.Time
	for i := 0; i < 50; i++ {
		w := rl.Admit(0)
		if i == 0 {
			if w != 0 {
				t.Fatalf("first request delayed by %d", w)
			}
			continue
		}
		if w < last {
			t.Fatalf("request %d served before its predecessor (%d < %d)", i, w, last)
		}
		last = w
	}
	if last < 4800 || last > 5200 {
		t.Fatalf("50th request delayed %d, want ~4900 (49 periods)", last)
	}
}

func TestRateLimitClampsBadConfig(t *testing.T) {
	rl := NewRateLimit(0, 0)
	if rl.Capacity != 1 || rl.PerTick != 1 {
		t.Fatalf("bad config not clamped: %+v", rl)
	}
}

// Property: the limiter never admits more than capacity + elapsed*rate
// requests over any span, regardless of the arrival pattern.
func TestPropertyRateLimitBound(t *testing.T) {
	f := func(gaps []uint8) bool {
		rl := NewRateLimit(5, 20)
		now := sim.Time(0)
		admitted := 0
		for _, g := range gaps {
			now += sim.Time(g)
			if rl.Admit(now) == 0 {
				admitted++
			}
		}
		bound := 5 + int(now/20) + 1
		return admitted <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Guarantee 1a, every cell: each request from each view the Full State table
// can have of the accelerator's copy, with the exact detail a violation
// reports ("" is legal). The details reach -trace output and docs/PROTOCOL.md.
func TestBlockTableCheckRequest(t *testing.T) {
	g := newCoreRig(FullState, nil).g
	reqs := [...]coherence.MsgType{coherence.AGetS, coherence.AGetM, coherence.APutM, coherence.APutE, coherence.APutS}
	for i, row := range []struct {
		view  string
		held  bool
		accel Grant
		want  [len(reqs)]string // by request, in reqs' order
	}{
		{"None", false, 0, [...]string{"", "",
			"PutM for a block the accelerator does not hold",
			"PutE for a block the accelerator does not hold",
			"PutS for a block the accelerator does not hold"}},
		{"S", true, GrantS, [...]string{
			"GetS but the accelerator already holds the block in S", "",
			"PutM for a block held only in S",
			"PutE for a block held in S", ""}},
		{"E", true, GrantE, [...]string{
			"GetS but the accelerator already holds the block in E",
			"GetM but the accelerator already holds the block in E", "", "",
			"PutS for a block held in E"}},
		{"M", true, GrantM, [...]string{
			"GetS but the accelerator already holds the block in M",
			"GetM but the accelerator already holds the block in M", "",
			"PutE for a block held in M",
			"PutS for a block held in M"}},
	} {
		tb := tableView{g, mem.Addr(0x1000 + i*mem.BlockBytes)}
		if row.held {
			tb.grant(row.accel, row.accel, false, mem.Zero(), row.accel == GrantM)
		}
		for j, ty := range reqs {
			if got := tb.checkRequest(ty); got != row.want[j] {
				t.Errorf("view %s, %v: %q, want %q", row.view, ty, got, row.want[j])
			}
		}
	}
}

func TestBlockTableCopiesAndStorage(t *testing.T) {
	g := newCoreRig(FullState, nil).g
	tableView{g, 0x0}.grant(GrantS, GrantE, true, mem.Zero(), false) // read-only owned: copy kept
	tableView{g, 0x40}.grant(GrantM, GrantM, false, mem.Zero(), true)
	if g.TableEntries() != 2 || tableCopies(g) != 1 {
		t.Fatalf("entries=%d copies=%d", g.TableEntries(), tableCopies(g))
	}
	g.drop(0x0)
	if g.TableEntries() != 1 || tableCopies(g) != 0 {
		t.Fatalf("after drop: entries=%d copies=%d", g.TableEntries(), tableCopies(g))
	}
	if len(g.lines) != 1 {
		t.Fatalf("%d lines in the table after the drop, want 1", len(g.lines))
	}
}

func TestEnumStrings(t *testing.T) {
	if FullState.String() != "FullState" || Transactional.String() != "Transactional" {
		t.Error("Mode strings wrong")
	}
	if GrantS.String() != "S" || GrantE.String() != "E" || GrantM.String() != "M" {
		t.Error("Grant strings wrong")
	}
	for v, want := range map[viewState]string{viewNone: "None", viewS: "S", viewE: "E", viewM: "M", viewUnknown: "Unknown"} {
		if v.String() != want {
			t.Errorf("viewState %q != %q", v.String(), want)
		}
	}
	if !viewM.owned() || !viewE.owned() || viewS.owned() || viewNone.owned() {
		t.Error("viewState.owned wrong")
	}
}
