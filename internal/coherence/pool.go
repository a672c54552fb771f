package coherence

import (
	"fmt"

	"crossingguard/internal/mem"
	"crossingguard/internal/raceflag"
)

// lifeState is where a pooled message stands in the lifetime rule (see
// Msg). It means nothing on a message that is not pooled.
type lifeState uint8

const (
	lifeNone lifeState = iota // disowned: the collector's from here
	lifeHeld                  // handed out: with its sender, in flight, or kept by a receiver
	lifeRecv                  // inside Recv (or a replay): taken back when it returns
	lifeFree                  // released
)

// poisonByte fills a released block in lifetime-check mode: a reader that
// outlived its claim sees this, never the next tenant's data.
const poisonByte = 0xDB

// pooledMsg is what the pool allocates: a message and the block it owns,
// one object.
type pooledMsg struct {
	m   Msg
	blk mem.Block
}

// pooled reports whether m is a message the pool handed out and still
// answers for. Forged messages, a sequencer's embedded request, a disowned
// message and a by-value copy of a pooled one (its home is the
// original's) are not, and every lifetime call ignores them.
func (m *Msg) pooled() bool { return m.home != nil && &m.home.m == m && m.life != lifeNone }

// Pool is one machine's free lists of protocol messages and cache-line
// blocks. A machine runs on one goroutine, so these are plain LIFO lists,
// never sync.Pool: the messages linked through themselves (Msg.next), the
// blocks a slice. The zero Pool is ready to use. network.Fabric embeds
// one, which is how every protocol agent reaches it.
//
// With the lifetime check on, a released message or block is poisoned and
// never handed out again, so a use after release reads MsgInvalid, a nil
// Data or a block of 0xDB — a protocol error, a failed value check or a
// changed fingerprint — instead of the next tenant; releasing twice,
// keeping or delivering a released message, and freeing a block the pool
// does not have out all panic. The check is on in -race builds and where a
// test calls CheckLifetimes; nothing else selects it.
type Pool struct {
	msgs   *Msg // free messages, linked through next
	blocks []*mem.Block
	check  bool
	// live is the set of blocks out, kept only under the lifetime check.
	live map[*mem.Block]struct{}

	msgsOut, blocksOut   int
	msgsMade, blocksMade uint64
}

// PoolStats is a Pool's balance: messages and blocks handed out and not
// yet returned, and how many of each the pool had to allocate.
type PoolStats struct {
	MsgsOut, BlocksOut   int
	MsgsMade, BlocksMade uint64
}

// Stats reports the pool's balance.
func (p *Pool) Stats() PoolStats {
	return PoolStats{p.msgsOut, p.blocksOut, p.msgsMade, p.blocksMade}
}

// CheckLifetimes turns the lifetime check on for this pool. Call before
// traffic starts.
func (p *Pool) CheckLifetimes() { p.check = true }

func (p *Pool) checking() bool { return raceflag.Enabled || p.check }

// Msg hands out a message holding t. Every field is overwritten, and a
// block t names is copied into the message's own storage, so nothing of
// the previous tenant — or of the sender's line — is shared.
func (p *Pool) Msg(t Msg) *Msg {
	m := p.msgs
	if m != nil {
		p.msgs = m.next
	} else {
		pm := new(pooledMsg)
		pm.m.home = pm
		m = &pm.m
		p.msgsMade++
	}
	home := m.home
	*m = t
	m.home, m.life, m.next = home, lifeHeld, nil
	if t.Data != nil {
		home.blk = *t.Data
		m.Data = &home.blk
	}
	p.msgsOut++
	return m
}

// OwnData makes m carry a zeroed block of its own — its pooled storage
// when it has one — and returns the block for the caller to fill.
func (m *Msg) OwnData() *mem.Block {
	if m.pooled() {
		m.home.blk = mem.Block{}
		m.Data = &m.home.blk
	} else {
		m.Data = new(mem.Block)
	}
	return m.Data
}

// Keep tells the fabric the receiver is holding on to m past Recv; the
// keeper gives it back with Release, or replays it between BeginRecv and
// EndRecv.
func (m *Msg) Keep() {
	if !m.pooled() {
		return
	}
	switch m.life {
	case lifeRecv:
		m.life = lifeHeld
	case lifeFree:
		panic(fmt.Sprintf("coherence: Keep on a released message (%v)", m))
	}
}

// BeginRecv marks m as being handled: the fabric calls it before Recv, a
// keeper before it replays a message it kept. Until the matching EndRecv
// the message is the handler's.
func (p *Pool) BeginRecv(m *Msg) {
	if !m.pooled() {
		return
	}
	switch m.life {
	case lifeHeld:
		m.life = lifeRecv
	case lifeFree:
		panic(fmt.Sprintf("coherence: delivery of a released message (%v)", m))
	}
}

// EndRecv takes m back unless its handler kept it.
func (p *Pool) EndRecv(m *Msg) {
	if m.pooled() && m.life == lifeRecv {
		p.release(m)
	}
}

// Release gives back a message its keeper is done with.
func (p *Pool) Release(m *Msg) {
	if !m.pooled() {
		return
	}
	switch m.life {
	case lifeHeld, lifeRecv:
		p.release(m)
	case lifeFree:
		panic(fmt.Sprintf("coherence: message released twice (%v)", m))
	}
}

func (p *Pool) release(m *Msg) {
	p.msgsOut--
	if p.checking() {
		for i := range m.home.blk {
			m.home.blk[i] = poisonByte
		}
		*m = Msg{life: lifeFree, home: m.home}
		return
	}
	m.life = lifeFree
	m.next = p.msgs
	p.msgs = m
}

// Disown takes m out of the pool for good: the collector owns it from
// here. The fabric disowns a message a fault interceptor has it deliver
// twice, or beside a corrupted copy of itself.
func (p *Pool) Disown(m *Msg) {
	if m.pooled() {
		m.life = lifeNone
	}
}

// CopyBlock hands out a block holding a copy of src (zeros for nil):
// storage for a cache line or a transaction record, given back with
// FreeBlock when the line is invalidated or the record closes.
func (p *Pool) CopyBlock(src *mem.Block) *mem.Block {
	var b *mem.Block
	if n := len(p.blocks); n > 0 {
		b = p.blocks[n-1]
		p.blocks = p.blocks[:n-1]
	} else {
		b = new(mem.Block)
		p.blocksMade++
	}
	if src != nil {
		*b = *src
	} else {
		*b = mem.Block{}
	}
	p.blocksOut++
	if p.checking() {
		if p.live == nil {
			p.live = make(map[*mem.Block]struct{})
		}
		p.live[b] = struct{}{}
	}
	return b
}

// FillBlock copies src (zeros for nil) into the block *dst owns, taking
// one from the list first when *dst is nil: a line being filled, or
// refilled in place.
func (p *Pool) FillBlock(dst **mem.Block, src *mem.Block) {
	switch {
	case *dst == nil:
		*dst = p.CopyBlock(src)
	case src != nil:
		**dst = *src
	default:
		**dst = mem.Block{}
	}
}

// FreeBlock gives back a block CopyBlock handed out; nil is ignored.
func (p *Pool) FreeBlock(b *mem.Block) {
	if b == nil {
		return
	}
	p.blocksOut--
	if p.checking() {
		if _, ok := p.live[b]; !ok {
			panic("coherence: FreeBlock of a block the pool does not have out")
		}
		delete(p.live, b)
		for i := range b {
			b[i] = poisonByte
		}
		return
	}
	p.blocks = append(p.blocks, b)
}

// RecPool is a free list of *T records for one machine's controllers: the
// guard's lines, open-work and parked-request records, and the caches'
// write-back buffer entries are recycled through one each, so a crossing or
// an eviction allocates none in steady state. A record comes back zeroed.
type RecPool[T any] struct{ free []*T }

// Get hands out a zeroed record.
func (p *RecPool[T]) Get() *T {
	if n := len(p.free); n > 0 {
		r := p.free[n-1]
		p.free = p.free[:n-1]
		return r
	}
	return new(T)
}

// Put zeroes r and takes it back.
func (p *RecPool[T]) Put(r *T) {
	var zero T
	*r = zero
	p.free = append(p.free, r)
}

// Free reports how many records wait on the list.
func (p *RecPool[T]) Free() int { return len(p.free) }

// NodeSet is a small set of nodes kept as an ascending slice, so ranging
// over it is deterministic (a map's order is not) and emptying it (s[:0])
// keeps its storage. Node ids are sparse — device d's nodes sit
// at d×1000 — so this is a sorted slice, not a bitset.
type NodeSet []NodeID

// NodeSets is a free list of NodeSet storage, for sets that live in a cache
// line: the line gives its sets back when it leaves the cache and the next
// line fetched takes them, so a set costs an allocation only while the
// cache is filling.
type NodeSets []NodeSet

// Get hands out an empty set, on recycled storage if there is any.
func (p *NodeSets) Get() NodeSet {
	n := len(*p)
	if n == 0 {
		return nil
	}
	s := (*p)[n-1]
	*p = (*p)[:n-1]
	return s
}

// Put takes back s's storage, if it has any.
func (p *NodeSets) Put(s NodeSet) {
	if cap(s) > 0 {
		*p = append(*p, s[:0])
	}
}

// Has reports whether n is in the set.
func (s NodeSet) Has(n NodeID) bool {
	for _, x := range s {
		if x == n {
			return true
		}
	}
	return false
}

// Add inserts n, keeping the order.
func (s *NodeSet) Add(n NodeID) {
	set := *s
	i := 0
	for i < len(set) && set[i] < n {
		i++
	}
	if i < len(set) && set[i] == n {
		return
	}
	if cap(set) == 0 {
		set = make(NodeSet, 0, 4)
	}
	set = append(set, 0)
	copy(set[i+1:], set[i:])
	set[i] = n
	*s = set
}

// Remove deletes n and reports whether it was there.
func (s *NodeSet) Remove(n NodeID) bool {
	set := *s
	for i, x := range set {
		if x == n {
			*s = append(set[:i], set[i+1:]...)
			return true
		}
	}
	return false
}
