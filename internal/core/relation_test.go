package core

import (
	"maps"
	"slices"
	"strings"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
)

// Full State against Transactional, as a checked relation on the reference
// guard: every sequence of at most five moves on one line, where a move is
// one of the accelerator's eight messages to the guard or the host's grant,
// writeback ack or recall, run in both modes. Until the modes first differ
// they are in the same state apart from what Full State knows of the
// accelerator's copy. Where they first differ, Full State must be reporting
// Guarantee 1a or 2a on something Transactional forwards or answers
// without a word — what Transactional leaves to the host's tolerance
// (§3.2). Any other first difference is pinned by name below.

// relationMoves are the moves, on a Hammer host with one responder: the
// host grants the open get with memory's data (E for a GetS) or with an
// owner's (S for a GetS; a GetM gets M either way), its WBAck closes the
// open writeback, and a Fwd_GetM asks for the line back. The accelerator's
// Puts and writebacks carry data, its InvAck none.
var relationMoves = []struct {
	name string
	host bool
	m    RefMsg
}{
	{"GetS", false, RefMsg{Type: coherence.AGetS}},
	{"GetM", false, RefMsg{Type: coherence.AGetM}},
	{"PutM", false, RefMsg{Type: coherence.APutM, Data: true}},
	{"PutE", false, RefMsg{Type: coherence.APutE, Data: true}},
	{"PutS", false, RefMsg{Type: coherence.APutS}},
	{"InvAck", false, RefMsg{Type: coherence.AInvAck}},
	{"CleanWB", false, RefMsg{Type: coherence.ACleanWB, Data: true}},
	{"DirtyWB", false, RefMsg{Type: coherence.ADirtyWB, Data: true}},
	{"grant", true, RefMsg{Type: coherence.HMemData, Data: true}},
	{"grant shared", true, RefMsg{Type: coherence.HData, Data: true}},
	{"wback-ack", true, RefMsg{Type: coherence.HWBAck}},
	{"recall", true, RefMsg{Type: coherence.HFwdGetM}},
}

const relationLine = mem.Addr(0x1000)

// relationDivergences are the first differences that are not Full State
// reporting 1a or 2a, by name.
var relationDivergences = []string{
	// A recall of a line Full State knows the accelerator does not hold
	// is answered at once; Transactional must ask the accelerator
	// (§2.3.2's broadcast snoops).
	"Full State: answer host | Transactional: recall",
}

// step runs a move on r and returns what r did and reported. A request it
// accepts goes to the host at once, and what the move woke re-runs.
func (r *Reference) step(host bool, m RefMsg) string {
	r.Deliver(!host, 0, relationLine, m)
	for {
		l := r.lines[relationLine]
		switch {
		case l.txnData && !l.put:
			r.Dispatched(relationLine, r.host.put)
		case l.txn == coherence.AGetS && !l.get:
			r.Dispatched(relationLine, r.host.gets[GetShared])
		case l.txn == coherence.AGetM && !l.get:
			r.Dispatched(relationLine, r.host.gets[GetExcl])
		}
		if !r.Rerun() {
			break
		}
	}
	out := strings.Join(r.did, ", ")
	if len(r.codes) > 0 {
		out += " " + strings.Join(r.codes, " ")
	}
	r.Take()
	return out
}

// clone copies r for the next move of a sequence.
func (r *Reference) clone() *Reference {
	c := *r
	c.lines = maps.Clone(r.lines)
	for a, l := range c.lines {
		cl := *l
		cl.conts, cl.parked = slices.Clone(l.conts), slices.Clone(l.parked)
		c.lines[a] = &cl
	}
	c.ready, c.cur = slices.Clone(r.ready), slices.Clone(r.cur)
	return &c
}

// TestFullStateRefinesTransactional walks the sequences depth first, both
// modes side by side, and stops a branch where they first differ.
func TestFullStateRefinesTransactional(t *testing.T) {
	const depth = 5
	// How many five-move sequences first differ in each way.
	seen, reports := map[string]int{}, map[string]int{}
	var walk func(full, txn *Reference, path []string)
	walk = func(full, txn *Reference, path []string) {
		if len(path) == depth {
			return
		}
		for _, mv := range relationMoves {
			f, x := full.clone(), txn.clone()
			fo, xo := f.step(mv.host, mv.m), x.step(mv.host, mv.m)
			p := append(path, mv.name)
			for _, r := range []*Reference{f, x} {
				if r.Err != nil {
					t.Fatalf("%v: %v", p, r.Err)
				}
			}
			if fo == xo {
				walk(f, x, p)
				continue
			}
			n := 1
			for range depth - len(p) {
				n *= len(relationMoves)
			}
			if (strings.Contains(fo, "XG.G1a") || strings.Contains(fo, "XG.G2a")) && !strings.Contains(xo, "XG.") &&
				(xo == "forward" || strings.HasPrefix(xo, "answer")) {
				reports[mv.name+": "+fo] += n
				continue
			}
			name := "Full State: " + fo + " | Transactional: " + xo
			if !slices.Contains(relationDivergences, name) {
				t.Errorf("%v: unpinned divergence %q", p, name)
			}
			seen[name] += n
		}
	}
	walk(newReference(FullState, hammerHost, 1), newReference(Transactional, hammerHost, 1), nil)
	t.Logf("first differences by a Full State report: %v; others: %v", reports, seen)
	for _, name := range relationDivergences {
		if seen[name] == 0 {
			t.Errorf("pinned divergence %q never seen", name)
		}
	}
	for _, want := range []string{"GetS: reject XG.G1a", "PutE: reject XG.G1a", "InvAck: answer XG.G2a", "CleanWB: answer XG.G2a"} {
		if reports[want] == 0 {
			t.Errorf("no sequence first differs by %q", want)
		}
	}
}
