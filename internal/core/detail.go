package core

import (
	"fmt"
	"strings"

	"crossingguard/internal/coherence"
)

// detail is the text of one violation for every message type, rendered once
// from its format, so that rejecting a message allocates no string: a fuzz
// shard's guard rejects one forged message after another. A type outside
// the table, which only a forged message carries, is rendered on the spot.
// A format without a verb is the text for every type.
type detail struct {
	format string
	text   [coherence.NumMsgTypes]string
}

func newDetail(format string) *detail {
	d := &detail{format: format}
	for t := range d.text {
		d.text[t] = d.of(coherence.MsgType(t))
	}
	return d
}

// of returns the text for a message of type t.
func (d *detail) of(t coherence.MsgType) string {
	switch {
	case t >= 0 && int(t) < len(d.text) && d.text[t] != "":
		return d.text[t]
	case strings.Contains(d.format, "%"):
		return fmt.Sprintf(d.format, t)
	}
	return d.format
}

// The guard's violation texts that name only the message type, by code.
var (
	// XG.BadMessage
	detailNotInterface = newDetail("accelerator sent non-interface message %v")
	// XG.G0a, XG.G0b
	detailNoAccess = newDetail("%v for page with no access")
	detailReadOnly = newDetail("%v for read-only page")
	// XG.G2a
	detailOwnedNoData  = newDetail("racing %v for an owned block carries no data")
	detailSharedData   = newDetail("racing %v carries data for a block held only in S")
	detailInconsistent = newDetail("%v inconsistent with accelerator state")
)
