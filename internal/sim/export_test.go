package sim

// Horizon exposes the wheel's window to the external tests, which aim
// delays at its edges.
const Horizon = horizon

// FarLen reports how many events wait in the far heap: what a long-dated
// timer that is not cancelled costs until its tick.
func (e *Engine) FarLen() int { return len(e.far) }
