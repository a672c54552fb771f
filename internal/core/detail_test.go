package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/obs"
	"crossingguard/internal/perm"
	"crossingguard/internal/raceflag"
)

// Every violation text the tables hold is the one its format renders, for
// every message type and for the undefined types only a forged message
// carries; a format without a verb is the text itself.
func TestViolationDetailTables(t *testing.T) {
	tables := []*detail{detailNotInterface, detailNoAccess, detailReadOnly,
		detailOwnedNoData, detailSharedData, detailInconsistent}
	for _, rules := range guardRules {
		for _, r := range rules.Rows {
			if r.Do.detail != nil {
				tables = append(tables, r.Do.detail)
			}
		}
	}
	types := []coherence.MsgType{-1, coherence.MsgType(coherence.NumMsgTypes), 1 << 20} // forged
	for ty := range coherence.NumMsgTypes {
		types = append(types, coherence.MsgType(ty))
	}
	for _, d := range tables {
		for _, ty := range types {
			want := d.format
			if strings.Contains(want, "%") {
				want = fmt.Sprintf(d.format, ty)
			}
			if got := d.of(ty); got != want {
				t.Errorf("%q for %v: got %q, want %q", d.format, ty, got, want)
			}
		}
	}
}

// Rejecting a forged request allocates nothing once the log has room: a
// request to a page with no access (G0a) and a second request while the
// line's transaction is open (G1b), counted in the guard's metrics and
// logged with their texts.
func TestRejectionAllocFree(t *testing.T) {
	if raceflag.Enabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	perms := perm.NewTable()
	perms.GrantRange(0, mem.PageBytes, perm.ReadWrite) // the next page has no access
	r := newCoreRig(FullState, perms)
	r.g.AttachObs(obs.NewRegistry())
	r.fromAccel(coherence.AGetS, 0x40, nil) // opens a transaction the stub host never grants
	noAccess := &coherence.Msg{Type: coherence.AGetS, Addr: mem.PageBytes + 0x40, Src: 200, Dst: 40}
	second := &coherence.Msg{Type: coherence.AGetM, Addr: 0x40, Src: 200, Dst: 40}
	reject := func() {
		r.g.Recv(noAccess)
		r.g.Recv(second)
	}
	reject() // the first violation of a code creates its counters
	r.log.Errors = slices.Grow(r.log.Errors, 1000)
	if allocs := testing.AllocsPerRun(100, reject); allocs != 0 {
		t.Errorf("rejecting a G0a and a G1b request allocated %v objects, want 0", allocs)
	}
	if n := r.log.ByCode["XG.G0a"]; n != 102 || r.log.ByCode["XG.G1b"] != n {
		t.Fatalf("logged %v, want 102 of XG.G0a and of XG.G1b", r.log.ByCode)
	}
	if got := r.log.Errors[0].Detail; got != "A:GetS for page with no access" {
		t.Errorf("G0a detail %q", got)
	}
	if got := r.log.Errors[1].Detail; got != "A:GetM while a transaction is already open" {
		t.Errorf("G1b detail %q", got)
	}
}
