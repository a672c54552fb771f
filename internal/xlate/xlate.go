// Package xlate implements Crossing Guard's block-size translation
// (paper §2.5): an accelerator that caches 128-byte blocks over a host
// with 64-byte blocks. "On an accelerator request, it can request all
// needed host blocks, and once they arrive, it can forward the merged
// block to the accelerator. On a writeback, it can split the single
// accelerator block back into component blocks."
//
// WideAccel is a wide-block accelerator cache with the translation layer
// folded in: externally it speaks the ordinary 64-byte Crossing Guard
// interface (so it attaches to a real, unmodified guard), internally it
// manages 128-byte lines by issuing paired sub-block transactions. The
// paper's warning is observable here too: false sharing doubles, because
// a host invalidation of either half recalls the whole wide line.
package xlate

import (
	"fmt"

	"crossingguard/internal/cacheset"
	"crossingguard/internal/chassis"
	"crossingguard/internal/coherence"
	"crossingguard/internal/config"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
	"crossingguard/internal/seq"
	"crossingguard/internal/sim"
)

// WideBytes is the accelerator's block size (two host blocks).
const WideBytes = 2 * mem.BlockBytes

// halfState tracks one host-sized half of a wide line.
type halfState int

const (
	halfS halfState = iota
	halfE
	halfM
)

// wideLine is one 128-byte line; data holds its two halves, each the
// accelerator's own block, taken from the machine's block list when the
// half is granted and given back when it is invalidated or evicted. txn
// is the open fill's record, nil when none is open.
type wideLine struct {
	txn     *wideFill
	pending int // sub-block responses still expected: grants, or WBAcks once evicted
	half    [2]halfState
	dirty   [2]bool
	data    [2]*mem.Block
}

// wideFill is an open paired fill: the core operation it completes, when
// it was issued (for crossing latency) and which halves are in flight.
type wideFill struct {
	op       *coherence.Msg
	issue    sim.Time
	inflight [2]bool
}

// WideAccel is the 128-byte-block accelerator plus its translation layer.
type WideAccel struct {
	// The tag array indexes 128-byte lines: cacheset works at any
	// granularity as long as addresses are consistent, so entries are keyed
	// by the wide-aligned address. The chassis's write-back buffer holds
	// wide evictions until their last WBAck.
	chassis.L1[wideLine, wideFill]
	eng *sim.Engine
	xg  coherence.NodeID

	// Merges counts wide fills assembled from sub-blocks; Splits counts
	// wide writebacks split into host blocks; FalseShareRecalls counts
	// wide lines lost because the host invalidated one half.
	Merges, Splits, FalseShareRecalls uint64

	// Observability (nil-safe no-ops until AttachObs).
	mMerges, mSplits, mFalseShare *obs.Counter
	mCrossing                     *obs.Histogram
}

// NewWideAccel builds and registers a wide-block accelerator. sets/ways
// describe 128-byte lines.
func NewWideAccel(id coherence.NodeID, name string, eng *sim.Engine, fab *network.Fabric,
	xg coherence.NodeID, sets, ways int) *WideAccel {
	w := &WideAccel{eng: eng, xg: xg}
	w.Init(w, id, name, fab, sets, ways, 1, nil, func(v *wideLine) bool { return v.txn != nil }, w.evict, w.handleCPU)
	return w
}

// Device is a wide accelerator and the core that drives it, as a
// machine's Spec.CustomAccel wires them into a slot (Wire).
type Device struct {
	Accel      *WideAccel
	Seq        *seq.Sequencer
	sets, ways int
}

// Wire puts slot's Device on s: a wide accelerator of sets x ways 128-byte
// lines at slot.AccelID behind the slot's guard, and a core (node 350,
// "wacc") in front of it, which it adds to s.AccelSeqs. A device of that
// geometry the slot kept from its machine's last run is restarted and
// registered again instead of built anew.
func Wire(s *config.System, slot *config.CustomSlot, sets, ways int) *Device {
	d := config.SlotDevice[Device](slot)
	if d.Accel == nil || d.sets != sets || d.ways != ways {
		*d = Device{sets: sets, ways: ways,
			Accel: NewWideAccel(slot.AccelID, "wide", s.Eng, s.Fab, slot.XGID, sets, ways),
			Seq:   seq.New(350, "wacc", s.Eng, s.Fab, slot.AccelID, &s.Ops)}
	} else {
		w := d.Accel
		w.L1.Reset()
		*w = WideAccel{L1: w.L1, eng: w.eng, xg: w.xg}
		d.Seq.Restart()
		s.Fab.Register(d.Accel)
		s.Fab.Register(d.Seq)
	}
	s.AccelSeqs = append(s.AccelSeqs, d.Seq)
	s.Fab.SetRoutePair(d.Seq.ID(), slot.AccelID, network.Config{Latency: 1, Ordered: true})
	return d
}

// Outstanding counts the accelerator's open work.
func (d *Device) Outstanding() int { return d.Accel.Outstanding() }

// AttachObs registers the translation layer's instruments with r:
// counters xlate.merges / xlate.splits / xlate.falseshare mirroring the
// Merges / Splits / FalseShareRecalls fields, and the
// xlate.crossing.ticks histogram measuring a wide fill's sub-block
// issue to its last sub-block grant. A nil registry leaves the
// accelerator uninstrumented.
func (w *WideAccel) AttachObs(r *obs.Registry) {
	w.mMerges = r.Counter("xlate.merges")
	w.mSplits = r.Counter("xlate.splits")
	w.mFalseShare = r.Counter("xlate.falseshare")
	w.mCrossing = r.Histogram("xlate.crossing.ticks")
}

// wideAddr aligns an address to the accelerator's 128-byte granule.
func wideAddr(a mem.Addr) mem.Addr { return a &^ (WideBytes - 1) }

// halfIndex selects which host block within the wide line a falls in.
func halfIndex(a mem.Addr) int { return int(a>>mem.BlockShift) & 1 }

// Recv implements coherence.Controller.
func (w *WideAccel) Recv(m *coherence.Msg) {
	switch m.Type {
	case coherence.ReqLoad, coherence.ReqStore:
		w.handleCPU(m)
	case coherence.ADataS, coherence.ADataE, coherence.ADataM:
		w.handleData(m)
	case coherence.AWBAck:
		w.handleWBAck(m)
	case coherence.AInv:
		w.handleInv(m)
	default:
		panic(fmt.Sprintf("%s: unexpected %v", w.Name(), m))
	}
}

func (w *WideAccel) send(ty coherence.MsgType, addr mem.Addr, data *mem.Block, dirty bool) {
	w.Fab.Send(w.Fab.Msg(coherence.Msg{Type: ty, Addr: addr, Src: w.ID(), Dst: w.xg, Data: data, Dirty: dirty}))
}

func (w *WideAccel) handleCPU(m *coherence.Msg) {
	wa := wideAddr(m.Addr)
	e, ok := w.Admit(wa, m)
	if !ok {
		return
	}
	isStore := m.Type == coherence.ReqStore
	if e == nil {
		if e = w.Allocate(wa, m); e != nil {
			w.fill(e, wa, m, isStore)
		}
		return
	}
	h := halfIndex(m.Addr)
	switch {
	case e.V.data[h] == nil:
		// Half lost to a host invalidation: re-fetch.
		w.fill(e, wa, m, isStore)
	case !isStore:
		w.Respond(m, e.V.data[h][m.Addr.Offset()])
	case e.V.half[h] == halfM || e.V.half[h] == halfE:
		e.V.half[h] = halfM
		e.V.dirty[h] = true
		e.V.data[h][m.Addr.Offset()] = m.Val
		w.Respond(m, 0)
	default:
		// Wide upgrade: both halves must become writable.
		w.fill(e, wa, m, true)
	}
}

// fill issues the paired sub-block transactions for a wide line (§2.5:
// "it can request all needed host blocks").
func (w *WideAccel) fill(e *cacheset.Entry[wideLine], wa mem.Addr, op *coherence.Msg, excl bool) {
	ty := coherence.AGetS
	if excl {
		ty = coherence.AGetM
	}
	e.V.txn = w.Txns.Get()
	*e.V.txn = wideFill{op: op}
	e.V.pending = 0
	for h := 0; h < 2; h++ {
		sub := wa + mem.Addr(h*mem.BlockBytes)
		if e.V.data[h] != nil {
			if !excl || e.V.half[h] != halfS {
				// Already usable at the required level.
				continue
			}
			// Upgrading a half held in S requires GetM from S — legal
			// in the interface (Table 1's S+Store row).
		}
		e.V.pending++
		e.V.txn.inflight[h] = true
		w.send(ty, sub, nil, false)
	}
	if e.V.pending == 0 {
		w.completeFill(e)
	} else {
		e.V.txn.issue = w.eng.Now()
	}
}

func (w *WideAccel) handleData(m *coherence.Msg) {
	wa := wideAddr(m.Addr)
	e := w.Lines.Peek(wa)
	if e == nil || e.V.txn == nil {
		panic(fmt.Sprintf("%s: grant with no fill: %v", w.Name(), m))
	}
	h := halfIndex(m.Addr)
	switch m.Type {
	case coherence.ADataM:
		e.V.half[h] = halfM
	case coherence.ADataE:
		e.V.half[h] = halfE
	default:
		e.V.half[h] = halfS
	}
	w.Fab.FillBlock(&e.V.data[h], m.Data) // in place on an upgrade
	e.V.dirty[h] = false
	e.V.txn.inflight[h] = false
	e.V.pending--
	if e.V.pending == 0 {
		w.Merges++
		w.mMerges.Inc()
		w.mCrossing.Observe(float64(w.eng.Now() - e.V.txn.issue))
		w.completeFill(e)
	}
}

func (w *WideAccel) completeFill(e *cacheset.Entry[wideLine]) {
	op := e.V.txn.op
	w.Txns.Put(e.V.txn)
	e.V.txn = nil
	h := halfIndex(op.Addr)
	if op.Type == coherence.ReqStore {
		if e.V.half[h] == halfE {
			e.V.half[h] = halfM
		}
		e.V.dirty[h] = true
		e.V.data[h][op.Addr.Offset()] = op.Val
		w.Respond(op, 0)
	} else {
		w.Respond(op, e.V.data[h][op.Addr.Offset()])
	}
	w.Settled(e.Addr)
}

// evict splits the wide line into per-half writebacks ("on a writeback,
// it can split the single accelerator block back into component blocks").
func (w *WideAccel) evict(wa mem.Addr, v *wideLine) {
	v.pending = 0 // counts the WBAcks due from here on
	for h := 0; h < 2; h++ {
		if v.data[h] == nil {
			continue
		}
		sub := wa + mem.Addr(h*mem.BlockBytes)
		switch {
		case v.half[h] == halfM || v.dirty[h]:
			w.send(coherence.APutM, sub, v.data[h], true)
		case v.half[h] == halfE:
			w.send(coherence.APutE, sub, v.data[h], false)
		default:
			w.send(coherence.APutS, sub, nil, false)
		}
		w.Fab.FreeBlock(v.data[h])
		v.data[h] = nil
		v.pending++
	}
	if v.pending > 0 {
		w.Splits++
		w.mSplits.Inc()
		w.Buffer(wa, v)
	}
}

func (w *WideAccel) handleWBAck(m *coherence.Msg) {
	wa := wideAddr(m.Addr)
	wl := w.Buffered(wa)
	if wl == nil {
		panic(fmt.Sprintf("%s: WBAck with no writeback: %v", w.Name(), m))
	}
	if wl.pending--; wl.pending == 0 {
		w.Retire(wa, nil) // evict gave the halves back
	}
}

// handleInv: the host invalidates ONE 64-byte block; the translation
// layer tracks per-half state (exactly what the guard-resident translator
// of §2.5 stores), so only the named half dies. Losing half of a wide
// line the accelerator was actively using is the false-sharing cost the
// paper warns about; FalseShareRecalls counts those events.
func (w *WideAccel) handleInv(m *coherence.Msg) {
	wa := wideAddr(m.Addr)
	h := halfIndex(m.Addr)
	if w.Buffered(wa) != nil {
		// Wide eviction in flight: the Put/Inv race, resolved by the guard.
		w.send(coherence.AInvAck, m.Addr.Line(), nil, false)
		return
	}
	e := w.Lines.Peek(wa)
	if e == nil || (e.V.txn != nil && e.V.txn.inflight[h]) || e.V.data[h] == nil {
		// Absent or mid-fetch: B-style InvAck, no further action.
		w.send(coherence.AInvAck, m.Addr.Line(), nil, false)
		return
	}
	switch {
	case e.V.half[h] == halfM || e.V.dirty[h]:
		w.send(coherence.ADirtyWB, m.Addr.Line(), e.V.data[h], true)
	case e.V.half[h] == halfE:
		w.send(coherence.ACleanWB, m.Addr.Line(), e.V.data[h], false)
	default:
		w.send(coherence.AInvAck, m.Addr.Line(), nil, false)
	}
	if e.V.data[1-h] != nil {
		w.FalseShareRecalls++ // useful wide line broken up
		w.mFalseShare.Inc()
	}
	w.Fab.FreeBlock(e.V.data[h])
	e.V.data[h] = nil
	e.V.dirty[h] = false
	e.V.half[h] = halfS
	if e.V.data[0] == nil && e.V.data[1] == nil && e.V.txn == nil {
		w.Lines.Invalidate(wa)
	}
}
