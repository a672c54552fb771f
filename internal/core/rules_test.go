package core

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"crossingguard/internal/accel"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
)

// In each Full State view the requests the guard forwards are exactly the
// messages paper Table 1 issues from that state, read from the rows the
// accelerator L1 runs: the guard accepts what a correct cache can send and
// rejects the rest. From E the cache may have upgraded to M silently, so E
// counts M's messages too.
func TestGuardRulesMatchTable1(t *testing.T) {
	_, rows := accel.Table1()
	issues := map[string][]string{} // Table 1 state -> the requests its cells issue
	for _, r := range rows {
		for _, cell := range r[1:] {
			if req, ok := strings.CutPrefix(cell, "issue "); ok {
				req, _, _ = strings.Cut(req, " ")
				issues[r[0]] = append(issues[r[0]], "A:"+req)
			}
		}
	}
	full := guardRules[FullState]
	for view, states := range map[viewState][]string{viewNone: {"I"}, viewS: {"S"}, viewE: {"E", "M"}, viewM: {"M"}} {
		var want, got []string
		for _, st := range states {
			want = append(want, issues[st]...)
		}
		for _, ty := range requests {
			if full.At(view, guardVocab.Event(ty)).act == actForward {
				got = append(got, ty.String())
			}
		}
		slices.Sort(want)
		slices.Sort(got)
		if want = slices.Compact(want); !slices.Equal(got, want) {
			t.Errorf("view %v forwards %q, Table 1 issues %q", view, got, want)
		}
	}
}

// Every view a guard can take of the accelerator's copy has a row for
// every message, so dispatch always finds a cell; the open-work keys have
// rows only for the messages they decide: a transaction for the five
// requests, an owed InvAck for InvAck, a recall for all eight, an open
// host get or writeback for the requests.
func TestGuardTablesTotal(t *testing.T) {
	for mode, views := range map[Mode][]viewState{
		FullState: {viewNone, viewS, viewE, viewM}, Transactional: {viewUnknown}} {
		rules := guardRules[mode]
		for _, v := range views {
			for ev, name := range guardVocab.Events() {
				if rules.At(v, ev) == nil {
					t.Errorf("%s: no row for %v/%s", rules.Class, v, name)
				}
			}
		}
		if got, want := rules.Coverage().Possible(), 19+len(views)*len(guardVocab.Events()); got != want {
			t.Errorf("%s declares %d cells, want %d", rules.Class, got, want)
		}
	}
}

// The guard records each message under the cell that decided it: the first
// of what the line has open with a row for the message, else the view.
func TestGuardRecordsDecidingCell(t *testing.T) {
	r := newCoreRig(FullState, nil)
	const A mem.Addr = 0x40
	r.fromAccel(coherence.AGetS, A, nil)    // None: forwarded; the stub host never grants
	r.fromAccel(coherence.AGetM, A, nil)    // Txn: G1b
	r.fromAccel(coherence.AInvAck, A, nil)  // a transaction has no row for it: the view's G2b
	r.fromAccel(coherence.APutS, 0x80, nil) // None: G1a, acked
	want := map[string]uint64{"None/A:GetS": 1, "Txn/A:GetM": 1, "None/A:InvAck": 1, "None/A:PutS": 1}
	if got := r.g.Coverage().Snapshot(); !maps.Equal(got, want) {
		t.Errorf("visits %v, want %v", got, want)
	}
	if u := r.g.Coverage().Unexpected; len(u) != 0 {
		t.Errorf("undeclared visits %v", u)
	}
	if n := r.log.ByCode; n["XG.G1b"] != 1 || n["XG.G2b"] != 1 || n["XG.G1a"] != 1 {
		t.Errorf("violations %v, want one each of XG.G1b, XG.G2b and XG.G1a", n)
	}
}
