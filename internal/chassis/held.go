package chassis

import "crossingguard/internal/mem"

// Level is the permission a stable line holds, normalized across
// protocols; the system audit compares caches of different protocols by
// it. Shared < Exclusive < Modified order the single-writer grants.
type Level uint8

const (
	Shared    Level = iota // read-only copy
	Exclusive              // sole copy, clean (E)
	Modified               // sole copy, written (M)
	Owned                  // written copy answering for the line beside sharers (MOESI O)
)

// HeldFunc receives one stable line of a cache — its address, level, data,
// and whether the data is modified relative to the next level. Every cache
// answers Held(fn HeldFunc) with its stable lines: the one enumeration the
// machine's audits are written against. Audit's clean-owner rule reads
// dirty: an owner that reports clean data must equal its home's copy.
type HeldFunc func(addr mem.Addr, lvl Level, data *mem.Block, dirty bool)
