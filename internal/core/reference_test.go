package core

import (
	"fmt"
	"slices"
	"strings"

	"crossingguard/internal/accel"
	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
)

// The reference guard: the guard's specification, run beside the real one
// (lockstep_test.go) and on its own (relation_test.go). It keeps no time,
// no pool, no instruments and no spans, only what the paper's Figure 1 and
// Table 1 say a guard must know of each line.
//
// Its accelerator half reads no guardRules row. A request is consistent
// with the accelerator's stable state when paper Table 1, as the
// accelerator cache runs it (accel.Table1), issues it from that state or
// from one the state reaches silently (E's store upgrade to M); otherwise
// it is a Guarantee 1a violation. A second request on a line with a
// transaction open is 1b; a response with nothing asked of the accelerator
// is 2b; a request waits while the line has a recall or a host get or put
// open; and an InvAck the accelerator owes from a Put/Inv race is taken
// silently. Its host half interprets the host's table (hammerRules,
// mesiRules), keyed as accelHolds keys it, and takes every recall's answer
// from hostAnswer.
//
// Out of scope, and refused: page permissions, quarantine, recovery and
// the rate limiter.

// RefMsg is a message as the reference sees it: its type and the flags
// that decide its cell.
type RefMsg struct {
	Type   coherence.MsgType
	Data   bool // carries a block
	Shared bool // Hammer: another cache keeps a copy
	Acks   int  // MESI DataAcks: the InvAcks that complete the GetM
}

// RefCell is a cell of one of the guard's two tables: the accelerator
// half's (xg.Full, xg.Txn) or, with Host, the host half's.
type RefCell struct {
	Host         bool
	State, Event int
}

// refLine is the reference's record of one block.
type refLine struct {
	// Full State residency.
	resident    bool
	accel, host Grant
	// The open accelerator transaction: its request (MsgInvalid when none)
	// and whether it holds a Put's data.
	txn     coherence.MsgType
	txnData bool
	owed    int // InvAcks owed from Put/Inv races
	// The open recall: the view it opened under and the host cells
	// waiting on its answer.
	recall bool
	rview  viewState
	conts  []*hostRule
	// The open host get and what its responses said so far.
	get         bool
	kind        GetKind
	needed, got int
	shared      bool
	put, lost   bool // the open host writeback; lost: a Fwd_GetM took its ownership
	accelPut    bool // the writeback is the accelerator's Put
	parked      []RefMsg
	queued      bool
}

// Reference is the reference guard.
type Reference struct {
	mode      Mode
	host      *hostProto
	responses int
	lines     map[mem.Addr]*refLine
	// ready lists the lines whose parked requests wait to re-run, in
	// wake order; cur holds the requests of the line re-running now.
	ready   []mem.Addr
	cur     []RefMsg
	curAddr mem.Addr

	// What the steps since the last Take did: the cells they ran, the
	// codes they reported and, in words, what they did.
	cells []RefCell
	codes []string
	did   []string
	// Err is the first step the specification has no answer for.
	Err error
}

// newReference builds a reference for a guard of mode on host, whose gets
// complete on responses answers (-1: the first says how many).
func newReference(mode Mode, host *hostProto, responses int) *Reference {
	return &Reference{mode: mode, host: host, responses: responses, lines: map[mem.Addr]*refLine{}}
}

// ReferenceFor builds the reference of g.
func ReferenceFor(g *Guard) *Reference { return newReference(g.cfg.Mode, g.host, g.responses) }

// issued[v] is the set of requests Table 1 lets an accelerator whose copy
// the guard sees as v send: those a state issues, closed over the states it
// reaches without a message.
var issued = func() map[viewState]map[coherence.MsgType]bool {
	events, rows := accel.Table1()
	issues, silent := map[string][]coherence.MsgType{}, map[string][]string{}
	for _, row := range rows {
		for i, cell := range row[1:] {
			if req, ok := strings.CutPrefix(cell, "issue "); ok {
				req, _, _ = strings.Cut(req, " ")
				issues[row[0]] = append(issues[row[0]], msgNamed("A:"+req))
			} else if next, ok := strings.CutPrefix(cell, "hit / "); ok && !strings.Contains(events[i], ":") {
				silent[row[0]] = append(silent[row[0]], next)
			}
		}
	}
	out := map[viewState]map[coherence.MsgType]bool{}
	for v, st := range map[viewState]string{viewNone: "I", viewS: "S", viewE: "E", viewM: "M"} {
		out[v] = map[coherence.MsgType]bool{}
		for todo := []string{st}; len(todo) > 0; todo = todo[1:] {
			for _, t := range issues[todo[0]] {
				out[v][t] = true
			}
			todo = append(todo, silent[todo[0]]...)
		}
	}
	return out
}()

func msgNamed(name string) coherence.MsgType {
	for t := range coherence.MsgType(coherence.NumMsgTypes) {
		if t.String() == name {
			return t
		}
	}
	panic("no message type " + name)
}

// Take returns the cells and codes of the steps since the last Take.
func (r *Reference) Take() (cells []RefCell, codes []string) {
	cells, codes, r.cells, r.codes, r.did = r.cells, r.codes, r.cells[:0:0], r.codes[:0:0], r.did[:0]
	return cells, codes
}

func (r *Reference) line(addr mem.Addr) *refLine {
	l := r.lines[addr]
	if l == nil {
		l = &refLine{txn: coherence.MsgInvalid}
		r.lines[addr] = l
	}
	return l
}

func (r *Reference) cell(host bool, k, ev int) { r.cells = append(r.cells, RefCell{host, k, ev}) }
func (r *Reference) code(c string)             { r.codes = append(r.codes, c) }
func (r *Reference) do(what string)            { r.did = append(r.did, what) }

func (r *Reference) fail(format string, args ...any) {
	if r.Err == nil {
		r.Err = fmt.Errorf(format, args...)
	}
}

// view is the accelerator half's view of l's block.
func (r *Reference) view(l *refLine) viewState {
	switch {
	case r.mode == Transactional:
		return viewUnknown
	case !l.resident:
		return viewNone
	}
	return [...]viewState{GrantS: viewS, GrantE: viewE, GrantM: viewM}[l.accel]
}

// Deliver takes message m for addr's line arriving at the guard: from the
// accelerator node when fromAccel, stamped with epoch.
func (r *Reference) Deliver(fromAccel bool, epoch uint32, addr mem.Addr, m RefMsg) {
	req, resp := m.Type.IsAccelRequest(), m.Type.IsAccelResponse()
	switch {
	case fromAccel && epoch != 0:
		r.code("XG.StaleEpoch")
	case (req || resp) && !fromAccel:
		r.code("XG.BadSource")
	case req || resp:
		r.accelMsg(addr, m)
	case fromAccel:
		r.code("XG.BadMessage")
	default:
		r.hostMsg(addr, m)
	}
}

// accelMsg runs an accelerator-interface message through Figure 1.
func (r *Reference) accelMsg(addr mem.Addr, m RefMsg) {
	l, ev := r.line(addr), guardVocab.Event(m.Type)
	req, get := m.Type.IsAccelRequest(), m.Type == coherence.AGetS || m.Type == coherence.AGetM
	view := r.view(l)
	switch {
	case req && l.txn != coherence.MsgInvalid: // 1b: one transaction per line
		r.cell(false, int(keyTxn), ev)
		r.reject("XG.G1b")
	case m.Type == coherence.AInvAck && l.owed > 0:
		r.cell(false, int(keyOwed), ev)
		r.do("consume")
		l.owed--
	case l.recall && get:
		r.cell(false, int(keyRecall), ev)
		r.park(l, m)
	case l.recall && req: // the Put crossed the Invalidate (§2.1)
		r.cell(false, int(keyRecall), ev)
		r.do("answer by Put")
		l.owed++
		data, _, bad := hostAnswer(l.rview, m.Data, blockIf(m.Data), false)
		r.closeRecall(addr, l)
		if bad {
			r.code("XG.G2a")
		}
		r.drop(l)
		r.complete(addr, l, data)
	case l.recall:
		r.cell(false, int(keyRecall), ev)
		r.do("answer")
		carries := m.Type != coherence.AInvAck
		data, _, bad := hostAnswer(l.rview, carries, blockIf(m.Data), false)
		r.closeRecall(addr, l)
		r.drop(l)
		if bad {
			r.code("XG.G2a")
		}
		r.complete(addr, l, data)
	case req && (l.get || l.put):
		r.cell(false, int(keyHost), ev)
		r.park(l, m)
	case !req: // 2b: nothing asked the accelerator
		r.cell(false, int(view), ev)
		r.reject("XG.G2b")
	case view != viewUnknown && !issued[view][m.Type]: // 1a
		r.cell(false, int(view), ev)
		r.reject("XG.G1a")
	default:
		r.cell(false, int(view), ev)
		r.do("forward")
		r.forward(addr, l, m)
	}
}

func (r *Reference) reject(code string) {
	r.do("reject")
	r.code(code)
}

// park holds request m until its line changes.
func (r *Reference) park(l *refLine, m RefMsg) {
	r.do("park")
	l.parked = append(l.parked, m)
}

func blockIf(data bool) *mem.Block {
	if data {
		return &zeroBlock
	}
	return nil
}

// forward accepts request m: a Get or a PutM/PutE opens the line's
// transaction, a PutS ends the residency at once.
func (r *Reference) forward(addr mem.Addr, l *refLine, m RefMsg) {
	switch m.Type {
	case coherence.APutS:
		r.drop(l)
		return
	case coherence.APutM, coherence.APutE:
		if !m.Data {
			r.code("XG.G1a") // forwarded with a zero block
		}
		l.txnData = true
	}
	l.txn = m.Type
	r.wake(addr, l)
}

// drop ends l's residency.
func (r *Reference) drop(l *refLine) { l.resident = false }

// wake queues l's parked requests, if any, to re-run.
func (r *Reference) wake(addr mem.Addr, l *refLine) {
	if len(l.parked) > 0 && !l.queued {
		l.queued = true
		r.ready = append(r.ready, addr)
	}
}

// Rerun re-runs the next parked request that a wake queued, reporting
// false when none is queued.
func (r *Reference) Rerun() bool {
	for len(r.cur) == 0 {
		if len(r.ready) == 0 {
			return false
		}
		r.curAddr = r.ready[0]
		l := r.lines[r.curAddr]
		r.ready, r.cur, l.parked, l.queued = r.ready[1:], l.parked, nil, false
	}
	m := r.cur[0]
	r.cur = r.cur[1:]
	r.accelMsg(r.curAddr, m)
	return true
}

// closeTxn retires l's accelerator transaction.
func (r *Reference) closeTxn(addr mem.Addr, l *refLine) {
	l.txn, l.txnData = coherence.MsgInvalid, false
	r.wake(addr, l)
}

func (r *Reference) closeRecall(addr mem.Addr, l *refLine) {
	l.recall = false
	r.wake(addr, l)
}

// complete resumes the host cells waiting on l's closed recall with data,
// the host's answer: one that yields ownership sends owner data home.
func (r *Reference) complete(addr mem.Addr, l *refLine, data *mem.Block) {
	for _, c := range l.conts {
		if c.act == doServe {
			r.fail("%v: a serving cell resumed: trusted copies are out of scope", addr)
		}
		if c.yields && data != nil {
			r.relinquish(l)
		}
	}
	l.conts = nil
}

// relinquish opens a guard-initiated writeback unless one is open.
func (r *Reference) relinquish(l *refLine) {
	if !l.put {
		l.put, l.lost, l.accelPut = true, false, false
	}
}

// hostMsg runs a host message through its cell of the host's table.
func (r *Reference) hostMsg(addr mem.Addr, m RefMsg) {
	rules := r.host.rules
	l, ev := r.line(addr), rules.Vocab.Event(m.Type)
	view := hostKey(r.view(l)) // keyed as accelHolds keys it
	k := view
	for _, key := range hostKeys {
		open := l.get
		if key != keyGet {
			open = l.put && l.lost == (key == keyLost)
		}
		if open && rules.At(key, ev) != nil {
			k = key
			break
		}
	}
	r.cell(true, int(k), ev)
	c := rules.At(k, ev)
	if c == nil {
		r.do("sink") // reported and sunk (hostStray)
		return
	}
	if c.code != "" {
		r.code(c.code)
	}
	switch c.act {
	case doAnswer:
		r.do("answer host")
		if k == keyPut {
			l.lost = c.yields
		}
	case doRecall:
		r.startRecall(addr, l, viewState(view), c)
	case doServe:
		r.fail("%v: %v served from a trusted copy: out of scope", addr, m.Type)
	case doCollect:
		r.collect(addr, l, m)
	case doRetire:
		r.do("retire")
		accelPut := l.accelPut
		l.put, l.lost, l.accelPut = false, false, false
		r.wake(addr, l)
		if accelPut && l.txn != coherence.MsgInvalid {
			r.closeTxn(addr, l)
			r.drop(l)
		}
	}
}

// startRecall asks the accelerator for addr's block on behalf of host cell
// c, or joins the recall open on it. A Put the guard holds answers at once.
func (r *Reference) startRecall(addr mem.Addr, l *refLine, expect viewState, c *hostRule) {
	switch {
	case l.recall:
		r.do("join recall")
		l.conts = append(l.conts, c)
	case l.txnData:
		r.do("answer host by Put")
		r.closeTxn(addr, l)
		r.drop(l)
		l.conts = []*hostRule{c}
		r.complete(addr, l, &zeroBlock)
	default:
		r.do("recall")
		l.recall, l.rview, l.conts = true, expect, []*hostRule{c}
		r.wake(addr, l)
	}
}

// collect takes a response into l's open get; the one that completes it
// grants the line.
func (r *Reference) collect(addr mem.Addr, l *refLine, m RefMsg) {
	done := false
	switch m.Type {
	case coherence.HData:
		l.shared = true
	case coherence.HAck:
		l.shared = l.shared || m.Shared
	case coherence.MDataE, coherence.MDataS:
		l.shared, done = m.Type == coherence.MDataS, true
	case coherence.MDataAcks:
		l.needed = m.Acks
	case coherence.MDataOwner, coherence.MInvAck:
		l.shared, done = true, l.kind != GetExcl
	}
	if m.Type != coherence.MDataAcks {
		l.got++
	}
	if !done && (l.needed < 0 || l.got < l.needed) {
		r.do("collect")
		return
	}
	r.do("grant")
	level := GrantE
	switch {
	case l.kind == GetExcl:
		level = GrantM
	case l.kind == GetSharedOnly || l.shared:
		level = GrantS
	}
	l.get = false
	r.wake(addr, l)
	if r.mode == FullState {
		l.resident, l.accel, l.host = true, level, level
	}
	r.closeTxn(addr, l)
}

// Dispatched takes the guard's host request of type t for addr, sent once
// its processing latency is over: the open transaction's get or writeback.
// A writeback the reference already opened (relinquish) is that one.
func (r *Reference) Dispatched(addr mem.Addr, t coherence.MsgType) {
	l := r.line(addr)
	if t == r.host.put {
		switch {
		case l.put:
		case l.txnData:
			l.put, l.lost, l.accelPut = true, false, true
		default:
			r.fail("%v: host writeback with no Put open", addr)
		}
		return
	}
	kind := slices.Index(r.host.gets[:], t)
	if kind < 0 {
		return // a PutS
	}
	if l.txn != coherence.AGetS && l.txn != coherence.AGetM || l.get {
		r.fail("%v: host %v with no Get waiting for it", addr, t)
	}
	l.get, l.kind, l.needed, l.got, l.shared = true, GetKind(kind), r.responses, 0, false
}

// Timeout takes the Guarantee 2c watchdog firing on addr's open recall:
// the guard answers for the accelerator.
func (r *Reference) Timeout(addr mem.Addr) {
	l := r.line(addr)
	r.code("XG.G2c")
	if !l.recall {
		r.fail("%v: watchdog fired with no recall open", addr)
		return
	}
	data, _, _ := hostAnswer(l.rview, false, nil, false)
	r.closeRecall(addr, l)
	r.complete(addr, l, data)
	r.drop(l)
}

// Blocks renders the Full State table, one "addr accel/host" line per
// resident block in address order, as Guard.VisitBlocks reports it.
func (r *Reference) Blocks() []string {
	var out []string
	for a, l := range r.lines {
		if l.resident {
			out = append(out, fmt.Sprintf("%v %v/%v", a, l.accel, l.host))
		}
	}
	slices.Sort(out)
	return out
}

// Open names what the reference still has open or parked, "" when nothing:
// at quiesce the real guard has nothing open either.
func (r *Reference) Open() string {
	for a, l := range r.lines {
		if l.txn != coherence.MsgInvalid || l.recall || l.get || l.put || len(l.parked) > 0 {
			return fmt.Sprintf("%v: %+v", a, *l)
		}
	}
	if len(r.ready)+len(r.cur) > 0 {
		return fmt.Sprintf("%d lines and %d requests waiting to re-run", len(r.ready), len(r.cur))
	}
	return ""
}

// CellName renders a cell as its coverage does, "state/event".
func (r *Reference) CellName(c RefCell) string {
	tab := guardVocab
	if c.Host {
		tab = r.host.rules.Vocab
	}
	return tab.States()[c.State] + "/" + tab.Events()[c.Event]
}
