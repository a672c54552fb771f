package coherence

import "slices"

// A Row is one line of a controller's transition table in the format of
// paper Table 1: in state St, each of the events Evs (indices into the
// table's vocabulary) does Do, one cell per event.
type Row[S ~int, V any] struct {
	St  S
	Evs []int
	Do  V
}

// Rules is a controller's transition table: the coverage class it records
// under, its vocabulary, its rows in the order written, and their cells
// indexed densely by (state, event) for dispatch, a later row's cell
// replacing an earlier one's. Rules are immutable and shared.
type Rules[S ~int, V any] struct {
	Class string
	Vocab *Table
	Rows  []Row[S, V]
	cells []*V // [state*events + event], nil where no row
	// declared marks the cells a row has, and possible counts them: the
	// declarations every coverage of the table shares.
	declared []bool
	possible int
}

// NewRules indexes rows over vocab.
func NewRules[S ~int, V any](class string, vocab *Table, rows []Row[S, V]) *Rules[S, V] {
	t := &Rules[S, V]{Class: class, Vocab: vocab, Rows: rows}
	t.cells = make([]*V, len(vocab.States())*len(vocab.Events()))
	for i := range rows {
		for _, ev := range rows[i].Evs {
			t.cells[int(rows[i].St)*len(vocab.Events())+ev] = &rows[i].Do
		}
	}
	t.declared = make([]bool, len(t.cells))
	for i, v := range t.cells {
		if v != nil {
			t.declared[i] = true
			t.possible++
		}
	}
	return t
}

// At returns the value of the cell (st, ev), or nil where no row has one.
func (t *Rules[S, V]) At(st S, ev int) *V { return t.cells[int(st)*len(t.Vocab.Events())+ev] }

// With returns t with the given rows' cells substituted for its own.
func (t *Rules[S, V]) With(subs ...Row[S, V]) *Rules[S, V] {
	return NewRules(t.Class, t.Vocab, slices.Concat(t.Rows, subs))
}

// Named returns t recording under coverage class class: a variant
// controller's visits then never merge with those of the table it varies.
func (t *Rules[S, V]) Named(class string) *Rules[S, V] { return NewRules(class, t.Vocab, t.Rows) }

// Coverage returns a recorder that declares exactly the table's cells. It
// shares the table's declarations and owns only its visit counts.
func (t *Rules[S, V]) Coverage() *Coverage {
	cov := &Coverage{name: t.Class}
	cov.adopt(t.Vocab, t.declared, t.possible)
	return cov
}

// Render returns the table as the paper prints it: states and events in
// the order the rows first name them, each row the state's name and then
// its cells as cell renders them, "-" where there is none.
func (t *Rules[S, V]) Render(cell func(st S, ev int, do *V) string) (events []string, rows [][]string) {
	var sts []S
	var evs []int
	for _, r := range t.Rows {
		if !slices.Contains(sts, r.St) {
			sts = append(sts, r.St)
		}
		for _, ev := range r.Evs {
			if !slices.Contains(evs, ev) {
				evs = append(evs, ev)
				events = append(events, t.Vocab.Events()[ev])
			}
		}
	}
	for _, st := range sts {
		out := []string{t.Vocab.States()[st]}
		for _, ev := range evs {
			c := "-"
			if do := t.At(st, ev); do != nil {
				c = cell(st, ev, do)
			}
			out = append(out, c)
		}
		rows = append(rows, out)
	}
	return events, rows
}

// Inventory counts the table's messages for experiment E2. Events from
// local on are messages: the requests taken are those some cell answers,
// the responses the rest; respsOut is the distinct messages cells send.
func (t *Rules[S, V]) Inventory(local int, answers func(*V) bool, send func(*V) MsgType) (reqsIn, respsIn, respsOut int) {
	answered, sent := map[int]bool{}, map[MsgType]bool{}
	for i := range t.Rows {
		for _, ev := range t.Rows[i].Evs {
			if ev >= local {
				answered[ev] = answered[ev] || answers(&t.Rows[i].Do)
				sent[send(&t.Rows[i].Do)] = true
			}
		}
	}
	for _, a := range answered {
		if a {
			reqsIn++
		}
	}
	delete(sent, MsgInvalid)
	return reqsIn, len(answered) - reqsIn, len(sent)
}
