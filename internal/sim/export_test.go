package sim

// Horizon exposes the wheel's window to the external tests, which aim
// delays at its edges.
const Horizon = horizon

// FarLen reports how many events wait in the far heap: what a long-dated
// timer that is not cancelled costs until its tick.
func (e *Engine) FarLen() int { return len(e.far) }

// StreamMemo returns the memo the engine's i'th stream holds, nil if none.
func (e *Engine) StreamMemo(i int) any {
	if h := e.streams[i].hold; h != nil {
		return h.m
	}
	return nil
}

// MemoHolds reports how many streams hold seed's memo, and whether the
// memo is still kept.
func MemoHolds(seed int64) (holds int, kept bool) {
	memos.Lock()
	defer memos.Unlock()
	if m := memos.bySeed[seed]; m != nil {
		return m.refs, true
	}
	return 0, false
}

// Sources reports how many of the engine's streams hold a source.
func (e *Engine) Sources() (n int) {
	for _, st := range e.streams {
		if st.src != nil {
			n++
		}
	}
	return n
}
