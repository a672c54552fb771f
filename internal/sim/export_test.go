package sim

// Horizon exposes the wheel's window to the external tests, which aim
// delays at its edges.
const Horizon = horizon
