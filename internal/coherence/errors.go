package coherence

import (
	"fmt"

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

// ErrorLog is the basic ErrorSink. It keeps what the OS of the paper's
// error model acts on: the exact number of reports (Count), the exact
// count per code (ByCode) and the first reports in order (Errors, at most
// errorsKept of them). A fuzz shard reports one error per forged message;
// the log stays the same size however many come, and an error-free
// machine pays nothing for it.
type ErrorLog struct {
	// Errors holds the first reports, in order, in an array the log owns.
	Errors []ProtocolError
	// ByCode counts errors per code.
	ByCode map[string]uint64
}

// errorsKept is how many of the first reports Errors holds.
const errorsKept = 8

// NewErrorLog returns an empty log.
func NewErrorLog() *ErrorLog { return &ErrorLog{ByCode: make(map[string]uint64)} }

// ReportError implements ErrorSink.
func (l *ErrorLog) ReportError(e ProtocolError) {
	if len(l.Errors) < errorsKept {
		if l.Errors == nil {
			l.Errors = make([]ProtocolError, 0, errorsKept)
		}
		l.Errors = append(l.Errors, e)
	}
	l.ByCode[e.Code]++
}

// Reset empties the log for the next run, keeping its array and map. The
// errors it held may not be read.
func (l *ErrorLog) Reset() {
	clear(l.Errors)
	l.Errors = l.Errors[:0]
	clear(l.ByCode)
}

// Count returns the total number of reported errors.
func (l *ErrorLog) Count() int {
	n := 0
	for _, c := range l.ByCode {
		n += int(c)
	}
	return n
}
