package core

import (
	"slices"

	"crossingguard/internal/coherence"
	"crossingguard/internal/perm"
	"crossingguard/internal/sim"
)

// The guard's table: its handling of the eight accelerator-to-guard
// messages, in the row format of paper Table 1. A message's row key is the
// first of what its line has open, in keyTxn..keyHost order, with a row for
// it; failing that, the guard's view of the accelerator's copy (rowKey). The
// rows are the guard's coverage declaration. The page-permission,
// quarantine, epoch, source, interface and rate-limit checks run ahead of
// the table. The host half's tables (host.go) are keyed the same way.

// viewState is the guard's knowledge of the accelerator's copy of a block
// and, past viewUnknown, the row keys of what a line may have open.
type viewState int

const (
	viewNone viewState = iota
	viewS
	viewE
	viewM
	viewUnknown // Transactional: only the accelerator knows
	keyTxn      // an open accelerator transaction
	keyOwed     // an InvAck owed from a Put/Inv race
	keyRecall   // an open recall
	keyHost     // an open host get or writeback
)

// viewNames names the views, which both halves' tables share.
var viewNames = []string{"None", "S", "E", "M", "Unknown"}

func (v viewState) String() string { return guardVocab.States()[v] }

// accelKeys are the keys dispatch looks for, in order, before the view.
var accelKeys = [...]viewState{keyTxn, keyOwed, keyRecall, keyHost}

// open reports whether l has open the work key k names. l may be nil.
func (k viewState) open(l *line) bool {
	switch k {
	case keyTxn:
		return hasTxn(l)
	case keyOwed:
		return l != nil && l.ignoreInvAck > 0
	case keyRecall:
		return hasRecall(l)
	}
	return hasGet(l) || hasPut(l)
}

// rowKey returns the key of the row that decides event ev on line l: the
// first of keys open on l with a row for ev in rules, else view. Both
// halves of the guard key their rows with it.
func rowKey[K interface {
	~int
	open(*line) bool
}, V any](rules *coherence.Rules[K, V], ev int, l *line, view K, keys []K) K {
	for _, k := range keys {
		if k.open(l) && rules.At(k, ev) != nil {
			return k
		}
	}
	return view
}

// cells is a row of a table over vocab: in key k, each of msgs does do.
func cells[K ~int, V any](vocab *coherence.Table, k K, do V, msgs ...coherence.MsgType) coherence.Row[K, V] {
	evs := make([]int, len(msgs))
	for i, t := range msgs {
		evs[i] = vocab.Event(t)
	}
	return coherence.Row[K, V]{St: k, Evs: evs, Do: do}
}

// owned reports whether the view implies the accelerator must supply data.
func (v viewState) owned() bool { return v == viewE || v == viewM }

// The messages of the table's columns, in the vocabulary's order.
var (
	gets      = []coherence.MsgType{coherence.AGetS, coherence.AGetM}
	requests  = []coherence.MsgType{coherence.AGetS, coherence.AGetM, coherence.APutM, coherence.APutE, coherence.APutS}
	responses = []coherence.MsgType{coherence.AInvAck, coherence.ACleanWB, coherence.ADirtyWB}
)

var guardVocab = coherence.NewTable(slices.Concat(viewNames, []string{"Txn", "OwedInvAck", "Recall", "HostGetPut"}),
	nil, slices.Concat(requests, responses)...)

// action is what the guard does with a message.
type action uint8

const (
	actForward   action = iota // accept the request and open its crossing
	actPark                    // hold the request until the line changes
	actPutRace                 // resolve the open recall with the Put (§2.1)
	actAnswer                  // answer the open recall with the response
	actConsume                 // consume the owed InvAck
	actReject                  // report the violation and drop the message
	actRejectPut               // the same, then ack the Put so it is not left hanging
)

// rule is a row's value: the action and, for a rejection, the guarantee
// and the violation's detail.
type rule struct {
	act    action
	code   string
	detail *detail
}

func row(k viewState, r rule, msgs ...coherence.MsgType) coherence.Row[viewState, rule] {
	return cells(guardVocab, k, r, msgs...)
}

// g1a is a Guarantee 1a rejection: a request inconsistent with the
// accelerator's stable state.
func g1a(act action, text string) rule { return rule{act, "XG.G1a", newDetail(text)} }

var (
	forward  = rule{act: actForward}
	noHost   = rule{actReject, "XG.G2b", newDetail("%v with no pending host request")}
	openRows = []coherence.Row[viewState, rule]{
		row(keyTxn, rule{actReject, "XG.G1b", newDetail("%v while a transaction is already open")}, requests...),
		row(keyOwed, rule{act: actConsume}, coherence.AInvAck),
		row(keyRecall, rule{act: actPark}, gets...),
		row(keyRecall, rule{act: actPutRace}, coherence.APutM, coherence.APutE, coherence.APutS),
		row(keyRecall, rule{act: actAnswer}, responses...),
		row(keyHost, rule{act: actPark}, requests...),
	}
	fullRows = []coherence.Row[viewState, rule]{
		row(viewNone, forward, gets...),
		row(viewNone, g1a(actRejectPut, "PutM for a block the accelerator does not hold"), coherence.APutM),
		row(viewNone, g1a(actRejectPut, "PutE for a block the accelerator does not hold"), coherence.APutE),
		row(viewNone, g1a(actRejectPut, "PutS for a block the accelerator does not hold"), coherence.APutS),
		row(viewS, forward, coherence.AGetM, coherence.APutS),
		row(viewS, g1a(actReject, "GetS but the accelerator already holds the block in S"), coherence.AGetS),
		row(viewS, g1a(actRejectPut, "PutM for a block held only in S"), coherence.APutM),
		row(viewS, g1a(actRejectPut, "PutE for a block held in S"), coherence.APutE),
		row(viewE, forward, coherence.APutM, coherence.APutE),
		row(viewE, g1a(actReject, "GetS but the accelerator already holds the block in E"), coherence.AGetS),
		row(viewE, g1a(actReject, "GetM but the accelerator already holds the block in E"), coherence.AGetM),
		row(viewE, g1a(actRejectPut, "PutS for a block held in E"), coherence.APutS),
		row(viewM, forward, coherence.APutM),
		row(viewM, g1a(actReject, "GetS but the accelerator already holds the block in M"), coherence.AGetS),
		row(viewM, g1a(actReject, "GetM but the accelerator already holds the block in M"), coherence.AGetM),
		row(viewM, g1a(actRejectPut, "PutE for a block held in M"), coherence.APutE),
		row(viewM, g1a(actRejectPut, "PutS for a block held in M"), coherence.APutS),
		row(viewNone, noHost, responses...),
		row(viewS, noHost, responses...),
		row(viewE, noHost, responses...),
		row(viewM, noHost, responses...),
	}
	// guardRules is each mode's table.
	guardRules = [...]*coherence.Rules[viewState, rule]{
		FullState: coherence.NewRules("xg.Full", guardVocab, slices.Concat(openRows, fullRows)),
		Transactional: coherence.NewRules("xg.Txn", guardVocab, slices.Concat(openRows, []coherence.Row[viewState, rule]{
			row(viewUnknown, forward, requests...),
			row(viewUnknown, noHost, responses...),
		})),
	}
)

// dispatch runs an accelerator message that passed the checks ahead of the
// table through its row, recording the visit. access is a request's page
// permission and arrive its arrival tick.
func (g *Guard) dispatch(m *coherence.Msg, access perm.Access, arrive sim.Time) {
	addr := m.Addr.Line()
	l := g.lines[addr]
	ev, view := guardVocab.Event(m.Type), viewUnknown
	if g.cfg.Mode == FullState {
		view = l.view()
	}
	k := rowKey(g.rules, ev, l, view, accelKeys[:])
	g.cov.Record(int(k), ev)
	switch r := g.rules.At(k, ev); r.act {
	case actForward:
		// A Put without data (Guarantee 1 hygiene) forwards a zero block.
		data := m.Data
		if (m.Type == coherence.APutM || m.Type == coherence.APutE) && data == nil {
			g.violation("XG.G1a", "Put without data", addr)
			data = &zeroBlock
		}
		g.forwardRequest(addr, m.Type, data, access, arrive)
	case actPark:
		g.park(addr, m, arrive)
	case actPutRace:
		g.endRecall(addr, "put-race", m, nil)
	case actAnswer:
		g.endRecall(addr, "response", m, nil)
	case actConsume:
		l.ignoreInvAck--
		g.settle(l)
	default:
		g.violation(r.code, r.detail.of(m.Type), addr)
		if r.act == actRejectPut {
			g.sendToAccelAfter(coherence.AWBAck, addr, nil, 0)
		}
	}
}
