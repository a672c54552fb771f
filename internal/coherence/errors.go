package coherence

import (
	"fmt"
	"slices"

	"crossingguard/internal/mem"
)

// ProtocolError is a detected coherence-protocol violation. Violations
// are *reported*, never panicked on, in any configuration that must
// tolerate a misbehaving agent (the Crossing Guard guarantees, and the
// host-protocol modifications of paper §3.2).
type ProtocolError struct {
	Where  string   // reporting controller
	Code   string   // stable identifier, e.g. "XG.G1a", "HOST.UnexpectedNack"
	Addr   mem.Addr // affected line (0 if none)
	Detail string
}

// Error formats the violation as "where: code @addr: detail".
func (e ProtocolError) Error() string {
	return fmt.Sprintf("%s: %s @%v: %s", e.Where, e.Code, e.Addr, e.Detail)
}

// ErrorSink receives protocol errors; the "OS" in the paper's error model.
type ErrorSink interface {
	ReportError(e ProtocolError)
}

// ErrorLog is the basic ErrorSink: it records everything.
type ErrorLog struct {
	Errors []ProtocolError
	// ByCode counts errors per code.
	ByCode map[string]uint64
}

// NewErrorLog returns an empty log.
func NewErrorLog() *ErrorLog { return &ErrorLog{ByCode: make(map[string]uint64)} }

// errorLogFirstCap is the room the first reported error makes: most
// adversarial shards end below it, and an error-free machine pays nothing.
const errorLogFirstCap = 32

// ReportError implements ErrorSink. Every error is kept. A full list at
// least doubles — a fuzz shard reports one error per forged message, and
// append's 1.25× steps past 256 entries would copy such a list twice as
// often.
func (l *ErrorLog) ReportError(e ProtocolError) {
	if n := len(l.Errors); n == cap(l.Errors) {
		l.Errors = slices.Grow(l.Errors, max(errorLogFirstCap, n))
	}
	l.Errors = append(l.Errors, e)
	l.ByCode[e.Code]++
}

// Reset empties the log and keeps its array and map for the errors of the
// next run: a fuzz shard logs one error per forged message, and a fresh
// array would double its way up again. The errors it held may not be read.
func (l *ErrorLog) Reset() {
	clear(l.Errors)
	l.Errors = l.Errors[:0]
	clear(l.ByCode)
}

// Trim lets the log's array go when it has room for more than n errors and
// the last run filled at most a quarter of it: a machine that waits to run
// again keeps the array its last run needed, not its largest run's. The
// errors it held may not be read.
func (l *ErrorLog) Trim(n int) {
	if cap(l.Errors) > n && len(l.Errors) <= cap(l.Errors)/4 {
		l.Errors = nil
	}
}

// Count returns the total number of reported errors.
func (l *ErrorLog) Count() int { return len(l.Errors) }
