// The offline axiomatic checker. Given the merged observation streams
// of one run, Check verifies three per-location invariants over the
// happens-before order "A.Done < B.Issued" (completion ticks plus
// per-core program order, which per-line sequencers already linearize):
//
//   - data-value: every load returns the value of a most-recent store —
//     a store that completed before the load and was not superseded by
//     another store that also completed before the load, or a store
//     concurrent with the load, or the initial zero when no store
//     completed first.
//   - swmr (single-writer/multiple-reader, observed form): two loads
//     whose windows overlap, with no store concurrent with either, must
//     observe the same value — with no writer active, the location has
//     one value.
//   - write-serialization: loads ordered by happens-before must observe
//     stores in a consistent order; a later load may not observe a
//     store that an earlier load already proved overwritten.
//
// All comparisons are strict: two operations meeting at the same tick
// are treated as concurrent, never ordered. That costs a little
// detection power at tick boundaries but makes the checker sound — it
// can flag only executions no sequentially-consistent memory could
// produce, so a reported violation is always real.
package consistency

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"strings"

	"crossingguard/internal/mem"
	"crossingguard/internal/sim"
)

// Invariant names one of the three checked axioms.
type Invariant string

const (
	// InvDataValue is violated when a load observes a value other than
	// the most recent store in happens-before order.
	InvDataValue Invariant = "data-value"
	// InvSWMR is violated when overlapping stable reads of one block
	// disagree — a write raced a reader that should have been excluded.
	InvSWMR Invariant = "swmr"
	// InvWriteSer is violated when two cores observe two stores to one
	// block in opposite orders.
	InvWriteSer Invariant = "write-serialization"
)

// Violation is one violating edge: B is the observation that broke the
// invariant, A is the record it conflicts with (the store it should
// have observed, or the earlier load it disagrees with).
type Violation struct {
	Inv    Invariant
	Addr   mem.Addr
	A, B   Rec
	Detail string
}

// String renders the violation as one deterministic report line.
func (v *Violation) String() string {
	return fmt.Sprintf("%s @%v: %s vs %s: %s", v.Inv, v.Addr, fmtRec(v.A), fmtRec(v.B), v.Detail)
}

func fmtRec(r Rec) string {
	epoch := ""
	if r.Epoch != 0 {
		epoch = fmt.Sprintf(" e%d", r.Epoch)
	}
	if r.Accel != 0 {
		return fmt.Sprintf("[a%d%s core %d %s=0x%02x t=%d..%d]", r.Accel, epoch, r.Core, r.Op, r.Val, r.Issued, r.Done)
	}
	return fmt.Sprintf("[core %d%s %s=0x%02x t=%d..%d]", r.Core, epoch, r.Op, r.Val, r.Issued, r.Done)
}

// Options configures a check.
type Options struct {
	// Workers bounds the per-block parallelism; <= 0 means GOMAXPROCS.
	// The verdict is byte-identical for any value: blocks fan out over
	// the pool as independent work units, locations inside a block are
	// checked in ascending address order, and results merge in address
	// order — exactly the sequential checker's visit order.
	Workers int
}

// Verdict is the deterministic result of checking one run's records.
type Verdict struct {
	Records   int
	Stores    int
	Loads     int
	Verifies  int
	Locations int
	// Violations holds the first violating edge of every violating
	// location, in ascending address order.
	Violations []*Violation
}

// OK reports a clean history.
func (v *Verdict) OK() bool { return len(v.Violations) == 0 }

// First returns the lowest-addressed violation, or nil.
func (v *Verdict) First() *Violation {
	if len(v.Violations) == 0 {
		return nil
	}
	return v.Violations[0]
}

// Render returns the full deterministic report: one summary line plus
// one line per violation. Byte-identical across Workers values.
func (v *Verdict) Render() string {
	var b strings.Builder
	status := "PASS"
	if !v.OK() {
		status = "FAIL"
	}
	fmt.Fprintf(&b, "%s: %d records (%d stores, %d loads, %d verifies) over %d locations, %d violations\n",
		status, v.Records, v.Stores, v.Loads, v.Verifies, v.Locations, len(v.Violations))
	for _, viol := range v.Violations {
		fmt.Fprintf(&b, "  %v\n", viol)
	}
	return b.String()
}

// Check verifies the three invariants over recs (any order; Check sorts
// a copy). Each byte location is checked independently; the verdict
// lists the first violating edge per violating location, in address
// order.
//
// One stable sort of the copy by (address, canonical merged order) lays
// each location's history out as one contiguous run, in merged order, and
// the locations in address order; two counting passes then size the
// location and block lists exactly.
//
// Parallelism is block-granular: byte locations sharing a cache line
// (mem.Addr.Line()) form one work unit, so each pool task carries a
// whole block's history instead of a lone location's handful of
// records. Grouping is free — the locations are already sorted, so a
// block is a contiguous index range — and the merge walks results in
// address order, making the verdict a pure function of the records.
func Check(recs []Rec, opt Options) *Verdict {
	byLoc := make([]Rec, len(recs))
	copy(byLoc, recs)
	slices.SortStableFunc(byLoc, func(a, b Rec) int {
		if c := cmp.Compare(a.Addr, b.Addr); c != 0 {
			return c
		}
		return compareMerged(a, b)
	})

	v := &Verdict{Records: len(byLoc)}
	nlocs, nunits := 0, 0
	for i, r := range byLoc {
		switch r.Op {
		case OpStore:
			v.Stores++
		case OpLoad:
			v.Loads++
		case OpVerify:
			v.Verifies++
		}
		if i == 0 || r.Addr != byLoc[i-1].Addr {
			nlocs++
			if i == 0 || r.Addr.Line() != byLoc[i-1].Addr.Line() {
				nunits++
			}
		}
	}
	v.Locations = nlocs

	// locs[k] is location k's record range in byLoc; a work unit is a
	// range [lo, hi) of locs sharing a cache line.
	type span struct{ lo, hi int }
	locs := make([]span, 0, nlocs)
	units := make([]span, 0, nunits)
	for i := 0; i < len(byLoc); {
		j := i + 1
		for j < len(byLoc) && byLoc[j].Addr == byLoc[i].Addr {
			j++
		}
		if len(locs) == 0 || byLoc[i].Addr.Line() != byLoc[locs[len(locs)-1].lo].Addr.Line() {
			units = append(units, span{len(locs), len(locs)})
		}
		locs = append(locs, span{i, j})
		units[len(units)-1].hi = len(locs)
		i = j
	}

	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(units) {
		workers = len(units)
	}
	if workers < 1 {
		workers = 1
	}

	found := make([]*Violation, len(locs))
	runUnit := func(u span) {
		for i := u.lo; i < u.hi; i++ {
			l := locs[i]
			found[i] = checkLocation(byLoc[l.lo].Addr, byLoc[l.lo:l.hi])
		}
	}
	if workers == 1 {
		for _, u := range units {
			runUnit(u)
		}
	} else {
		next := make(chan span, len(units))
		for _, u := range units {
			next <- u
		}
		close(next)
		done := make(chan struct{})
		for w := 0; w < workers; w++ {
			go func() {
				for u := range next {
					runUnit(u)
				}
				done <- struct{}{}
			}()
		}
		for w := 0; w < workers; w++ {
			<-done
		}
	}
	for _, viol := range found {
		if viol != nil {
			v.Violations = append(v.Violations, viol)
		}
	}
	return v
}

// hb reports A happens-before B: strictly completed before B issued —
// or, for two operations of the same accelerator device, A completed
// under an earlier guard epoch. A device reset fences the device (the
// guard drains every transaction and wipes the hierarchy before bumping
// the epoch), so cross-epoch operations are never truly concurrent even
// when their ticks overlap; the fence lets the checker convict a
// post-reset read that returns pre-reset stale data.
func hb(a, b Rec) bool {
	if a.Done < b.Issued {
		return true
	}
	return a.Accel != 0 && a.Accel == b.Accel && a.Epoch < b.Epoch
}

// concurrent reports overlapping windows (neither ordered before the
// other). Equal-tick meetings count as concurrent (strict comparisons).
func concurrent(a, b Rec) bool { return !hb(a, b) && !hb(b, a) }

// readSummary is what the passes of checkLocation learn about one read:
// whether a store could explain it (hasCand) or the initial zero could
// (zeroOK), the latest completion and earliest issue over its candidate
// stores, and whether no store was concurrent with it (stable).
type readSummary struct {
	hasCand, zeroOK, stable    bool
	candMaxDone, candMinIssued sim.Time
}

// checkLocation runs all three invariants over one location's records
// (in canonical merged order) and returns the first violating edge, in
// a fixed check order: data-value scanning reads in merged order, then
// swmr over read pairs, then write-serialization over hb-ordered read
// pairs. O(reads x stores) — locations see at most a few hundred
// records each.
func checkLocation(addr mem.Addr, recs []Rec) *Violation {
	nstores := 0
	for _, r := range recs {
		if r.Op == OpStore {
			nstores++
		}
	}
	stores := make([]Rec, 0, nstores)
	reads := make([]Rec, 0, len(recs)-nstores)
	for _, r := range recs {
		if r.Op == OpStore {
			stores = append(stores, r)
		} else {
			reads = append(reads, r)
		}
	}

	// Per-read explanation summary, filled by the data-value pass and
	// reused by write-serialization: the candidate set C(r) is every
	// store that could legally explain read r (matching value, and
	// either completed-before-r without an interposing completed store,
	// or concurrent with r). A read's actually-observed store is always
	// in its candidate set, so bounds over C(r) are bounds over every
	// legal explanation.
	sum := make([]readSummary, len(reads))

	for i, rd := range reads {
		latest := -1 // latest completed, unsuperseded store (for the report)
		sawCompleted := false
		for si, st := range stores {
			if hb(st, rd) {
				sawCompleted = true
				superseded := false
				for _, st2 := range stores {
					if hb(st, st2) && hb(st2, rd) {
						superseded = true
						break
					}
				}
				if superseded {
					continue
				}
				latest = si
			} else if !concurrent(st, rd) {
				continue // store entirely after the read: not a candidate
			}
			// st is a candidate: completed-and-unsuperseded, or concurrent.
			if st.Val != rd.Val {
				continue
			}
			if !sum[i].hasCand || st.Done > sum[i].candMaxDone {
				sum[i].candMaxDone = st.Done
			}
			if !sum[i].hasCand || st.Issued < sum[i].candMinIssued {
				sum[i].candMinIssued = st.Issued
			}
			sum[i].hasCand = true
		}
		sum[i].zeroOK = rd.Val == 0 && !sawCompleted
		if sum[i].hasCand || sum[i].zeroOK {
			continue
		}
		a := Rec{Addr: addr}
		detail := "no store ever wrote this value here"
		if latest >= 0 {
			a = stores[latest]
			detail = fmt.Sprintf("observed 0x%02x but the most recent completed store wrote 0x%02x", rd.Val, a.Val)
		} else if len(stores) > 0 {
			a = stores[0]
			detail = fmt.Sprintf("observed 0x%02x before any store of that value completed", rd.Val)
		}
		return &Violation{Inv: InvDataValue, Addr: addr, A: a, B: rd, Detail: detail}
	}

	// swmr: overlapping reads with no writer active must agree.
	for i, rd := range reads {
		sum[i].stable = true
		for _, st := range stores {
			if concurrent(st, rd) {
				sum[i].stable = false
				break
			}
		}
	}
	for i := 0; i < len(reads); i++ {
		if !sum[i].stable {
			continue
		}
		for j := i + 1; j < len(reads); j++ {
			if !sum[j].stable || !concurrent(reads[i], reads[j]) {
				continue
			}
			if reads[i].Val != reads[j].Val {
				return &Violation{Inv: InvSWMR, Addr: addr, A: reads[i], B: reads[j],
					Detail: fmt.Sprintf("overlapping reads with no writer active observed 0x%02x and 0x%02x", reads[i].Val, reads[j].Val)}
			}
		}
	}

	// write-serialization: along happens-before chains of reads, the
	// observed store order never moves backwards. The check is
	// deliberately conservative so it stays sound: read j (after read i)
	// violates serialization only when every store that could explain j
	// completes strictly before every store that could explain i begins
	// — then any legal explanation has j observing a store serialized
	// before i's, while j read strictly after i. Reads explainable by
	// the initial zero constrain nothing as the earlier edge; as the
	// later edge, a zero-only read after a store-explained read is a
	// lost store.
	for i := 0; i < len(reads); i++ {
		if sum[i].zeroOK || !sum[i].hasCand {
			continue
		}
		for j := 0; j < len(reads); j++ {
			if !hb(reads[i], reads[j]) {
				continue
			}
			if !sum[j].hasCand || sum[j].candMaxDone < sum[i].candMinIssued {
				return &Violation{Inv: InvWriteSer, Addr: addr, A: reads[i], B: reads[j],
					Detail: fmt.Sprintf("later read observed 0x%02x, serialized strictly before the 0x%02x an earlier read returned", reads[j].Val, reads[i].Val)}
			}
		}
	}
	return nil
}
