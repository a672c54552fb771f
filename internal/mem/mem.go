// Package mem provides the memory data model shared by every protocol
// component: physical addresses, cache blocks (lines), pages, and a
// functional backing store.
//
// Blocks carry real data so that the random stress tester (paper §4.1) can
// verify end-to-end value correctness, not just protocol liveness.
package mem

import "fmt"

const (
	// BlockBytes is the host coherence granularity (the paper uses 64 B).
	BlockBytes = 64
	// BlockShift is log2(BlockBytes).
	BlockShift = 6
	// PageBytes is the page granularity used for permissions (4 KiB).
	PageBytes = 4096
	// PageShift is log2(PageBytes).
	PageShift = 12
)

// Addr is a physical byte address.
type Addr uint64

// Line returns the address of the block containing a.
func (a Addr) Line() Addr { return a &^ (BlockBytes - 1) }

// Offset returns a's byte offset within its block.
func (a Addr) Offset() int { return int(a & (BlockBytes - 1)) }

// Page returns the address of the page containing a.
func (a Addr) Page() Addr { return a &^ (PageBytes - 1) }

// String renders the address in hex.
func (a Addr) String() string { return fmt.Sprintf("0x%x", uint64(a)) }

// Block is one cache line of data. A block has one owner: the cache line,
// transaction record or message whose storage it is. Sending copies it
// into the message (coherence.Pool.Msg) and a receiver that keeps the data
// copies it out into storage of its own (coherence.Pool.CopyBlock), so a
// *Block handed across a call is a loan for the length of that call.
type Block [BlockBytes]byte

// Copy returns a fresh heap copy of b: for set-up code and tests. The
// protocol paths use pooled storage instead.
func (b *Block) Copy() *Block {
	c := *b
	return &c
}

// Zero returns an all-zero block. Crossing Guard sends zero blocks on
// behalf of a misbehaving accelerator (Guarantee 2a/2c recovery).
func Zero() *Block { return new(Block) }

// Equal reports whether two (possibly nil) blocks hold identical bytes.
// nil is treated as a zero block, matching what memory returns for
// never-written lines.
func Equal(a, b *Block) bool {
	if a == nil {
		a = Zero()
	}
	if b == nil {
		b = Zero()
	}
	return *a == *b
}

// Memory is the functional backing store. Reads of never-written lines
// return zero blocks, like freshly-mapped physical memory.
type Memory struct {
	lines map[Addr]*Block
	// spare holds the blocks of lines a Reset forgot, for the next lines
	// written.
	spare []*Block

	// Reads and Writes count functional accesses, for statistics.
	Reads, Writes uint64
}

// NewMemory returns an empty backing store.
func NewMemory() *Memory { return &Memory{lines: make(map[Addr]*Block)} }

// Reset empties the store, keeping its map and blocks for the next run.
func (m *Memory) Reset() {
	for _, b := range m.lines {
		m.spare = append(m.spare, b)
	}
	clear(m.lines)
	m.Reads, m.Writes = 0, 0
}

// Read returns a copy of the block containing a.
func (m *Memory) Read(a Addr) *Block {
	b := new(Block)
	m.ReadInto(a, b)
	return b
}

// ReadInto copies the block containing a into dst: Read without the
// allocation, for a caller that owns the storage.
func (m *Memory) ReadInto(a Addr, dst *Block) {
	m.Reads++
	if b, ok := m.lines[a.Line()]; ok {
		*dst = *b
	} else {
		*dst = Block{}
	}
}

// Peek returns the stored block without copying or counting; for
// invariant checks only. Never-written lines return nil.
func (m *Memory) Peek(a Addr) *Block { return m.lines[a.Line()] }

// Write stores a copy of b (nil is a zero block) as the block containing
// a, overwriting the line in place once it exists.
func (m *Memory) Write(a Addr, b *Block) {
	m.Writes++
	line, ok := m.lines[a.Line()]
	if !ok {
		if n := len(m.spare); n > 0 {
			line, m.spare = m.spare[n-1], m.spare[:n-1]
		} else {
			line = new(Block)
		}
		m.lines[a.Line()] = line
	}
	if b != nil {
		*line = *b
	} else {
		*line = Block{}
	}
}

// StoreByte stores one byte, reading/modifying/writing the containing
// block. Used by functional checkers and workload setup.
func (m *Memory) StoreByte(a Addr, v byte) {
	b := m.Read(a)
	b[a.Offset()] = v
	m.Write(a, b)
}

// LoadByte loads one byte.
func (m *Memory) LoadByte(a Addr) byte {
	return m.Read(a)[a.Offset()]
}

// Lines reports how many distinct lines have been written.
func (m *Memory) Lines() int { return len(m.lines) }
