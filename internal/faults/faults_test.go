package faults

import (
	"fmt"
	"testing"
	"testing/quick"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
	"crossingguard/internal/raceflag"
	"crossingguard/internal/sim"
)

func TestPlanSpecRoundTrip(t *testing.T) {
	plans := []Plan{
		{},
		{Seed: 7, Drop: 0.02},
		{Seed: -3, Dup: 1},
		{Drop: 0.125, Dup: 0.25, Corrupt: 0.5, Delay: 0.75, MaxDelay: 300, Reorder: 1},
		{Seed: 9, Delay: 0.1}, // MaxDelay left for NewInjector to default
	}
	for _, p := range Presets {
		plans = append(plans, p.Plan)
	}
	for _, p := range plans {
		spec := p.Spec()
		got, err := ParsePlan(spec)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", spec, err)
		}
		if got != p {
			t.Errorf("round trip %q: got %+v, want %+v", spec, got, p)
		}
	}
	if (Plan{}).Spec() != "none" {
		t.Errorf("zero plan spec = %q, want none", (Plan{}).Spec())
	}
	if p, err := ParsePlan("none"); err != nil || p.Active() {
		t.Errorf(`ParsePlan("none") = %+v, %v`, p, err)
	}
}

// Property: any plan with probabilities in [0,1] round-trips exactly
// (shortest-form float formatting is lossless).
func TestPlanSpecRoundTripProperty(t *testing.T) {
	f := func(seed int64, a, b, c, d, e uint16, maxDelay uint16) bool {
		p := Plan{
			Seed:     seed,
			Drop:     float64(a) / 65535,
			Dup:      float64(b) / 65535,
			Corrupt:  float64(c) / 65535,
			Delay:    float64(d) / 65535,
			MaxDelay: sim.Time(maxDelay),
			Reorder:  float64(e) / 65535,
		}
		got, err := ParsePlan(p.Spec())
		return err == nil && got == p
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestParsePlanErrors(t *testing.T) {
	for _, bad := range []string{
		"drop=0.5",     // wrong separator
		"drop:1.5",     // probability out of range
		"drop:-0.1",    // negative probability
		"zap:1",        // unknown field
		"fseed:x",      // bad integer
		"maxdelay:-1",  // negative delay
		"maxdelay:1.5", // non-integer delay
	} {
		if _, err := ParsePlan(bad); err == nil {
			t.Errorf("ParsePlan(%q) accepted", bad)
		}
	}
}

// recorder captures deliveries with arrival times for fingerprinting.
type recorder struct {
	id  coherence.NodeID
	eng *sim.Engine
	log []string
}

func (r *recorder) ID() coherence.NodeID { return r.id }
func (r *recorder) Name() string         { return "recorder" }
func (r *recorder) Recv(m *coherence.Msg) {
	d := byte(0)
	if m.Data != nil {
		d = m.Data[0] ^ m.Data[17]
	}
	r.log = append(r.log, fmt.Sprintf("%d:%v:%d:%d", r.eng.Now(), m.Type, m.Acks, d))
}

// injectorRun pushes a fixed traffic pattern through a faulty fabric and
// returns the delivery fingerprint plus the injector.
func injectorRun(plan Plan) ([]string, *Injector) {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 2, Ordered: true})
	src := &recorder{id: 1, eng: eng}
	dst := &recorder{id: 2, eng: eng}
	fab.Register(src)
	fab.Register(dst)
	inj := NewInjector(plan, fab)
	inj.Watch(1, 2)
	fab.SetInterceptor(inj)
	for i := 0; i < 200; i++ {
		m := &coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2, Acks: int32(i)}
		if i%3 == 0 {
			blk := mem.Zero()
			blk[0] = byte(i)
			m = &coherence.Msg{Type: coherence.ADataM, Src: 1, Dst: 2, Acks: int32(i), Data: blk}
		}
		fab.Send(m)
	}
	eng.RunUntilQuiet()
	return dst.log, inj
}

// The tentpole property: the fault schedule is a pure function of
// (plan, traffic). Same plan, same traffic — bit-identical deliveries and
// counters, including a plan reconstructed from its spec string.
func TestInjectorDeterministicReplay(t *testing.T) {
	plan := Plan{Seed: 5, Drop: 0.15, Dup: 0.2, Corrupt: 0.3, Delay: 0.3, MaxDelay: 40, Reorder: 0.25}
	log1, inj1 := injectorRun(plan)
	parsed, err := ParsePlan(plan.Spec())
	if err != nil {
		t.Fatal(err)
	}
	log2, inj2 := injectorRun(parsed)
	if len(log1) != len(log2) {
		t.Fatalf("replay delivered %d vs %d messages", len(log1), len(log2))
	}
	for i := range log1 {
		if log1[i] != log2[i] {
			t.Fatalf("replay diverged at delivery %d: %q vs %q", i, log1[i], log2[i])
		}
	}
	c1 := [6]uint64{inj1.Injected, inj1.Drops, inj1.Dups, inj1.Corrupts, inj1.Delays, inj1.Reorders}
	c2 := [6]uint64{inj2.Injected, inj2.Drops, inj2.Dups, inj2.Corrupts, inj2.Delays, inj2.Reorders}
	if c1 != c2 {
		t.Fatalf("replay fault counters diverged: %v vs %v", c1, c2)
	}
	if inj1.Injected == 0 || inj1.Drops == 0 || inj1.Dups == 0 ||
		inj1.Corrupts == 0 || inj1.Delays == 0 || inj1.Reorders == 0 {
		t.Fatalf("plan injected no faults of some kind: %+v", inj1)
	}
	if inj1.Injected != inj1.Drops+inj1.Dups+inj1.Corrupts+inj1.Delays+inj1.Reorders {
		t.Fatalf("Injected %d != sum of kinds", inj1.Injected)
	}
}

// Unwatched channels pass through untouched even under a fully active
// plan, and an inactive plan consumes no randomness on watched ones.
func TestInjectorScope(t *testing.T) {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 2})
	a := &recorder{id: 1, eng: eng}
	b := &recorder{id: 2, eng: eng}
	fab.Register(a)
	fab.Register(b)
	inj := NewInjector(Plan{Seed: 1, Drop: 1}, fab)
	inj.Watch(3, 4) // not the channel under test
	fab.SetInterceptor(inj)
	for i := 0; i < 10; i++ {
		fab.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2, Acks: int32(i)})
	}
	eng.RunUntilQuiet()
	if len(b.log) != 10 || inj.Injected != 0 {
		t.Fatalf("unwatched traffic perturbed: delivered=%d injected=%d", len(b.log), inj.Injected)
	}
}

func TestInjectorDropsEverythingAtP1(t *testing.T) {
	log, inj := injectorRun(Plan{Seed: 3, Drop: 1})
	if len(log) != 0 {
		t.Fatalf("%d deliveries under Drop=1, want 0", len(log))
	}
	if inj.Drops != 200 || inj.Injected != 200 {
		t.Fatalf("Drops=%d Injected=%d, want 200/200", inj.Drops, inj.Injected)
	}
}

func TestInjectorDuplicatesEverythingAtP1(t *testing.T) {
	log, inj := injectorRun(Plan{Seed: 3, Dup: 1})
	if len(log) != 400 {
		t.Fatalf("%d deliveries under Dup=1, want 400", len(log))
	}
	if inj.Dups != 200 {
		t.Fatalf("Dups = %d, want 200", inj.Dups)
	}
}

// Corruption flips exactly one bit in a copy: control messages are left
// alone, and the sender's block is never touched (a duplicate can still
// deliver the clean payload).
func TestInjectorCorruptCopiesNotOriginals(t *testing.T) {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 2})
	a := &recorder{id: 1, eng: eng}
	b := &recorder{id: 2, eng: eng}
	fab.Register(a)
	fab.Register(b)
	inj := NewInjector(Plan{Seed: 11, Corrupt: 1}, fab)
	inj.Watch(1, 3)
	fab.SetInterceptor(inj)

	orig := mem.Zero()
	orig[5] = 0xAA
	var gotData *mem.Block
	// The corrupted copy is a pooled message: its block is the receiver's
	// only until Recv returns, so the receiver copies it out.
	b2 := &funcController{id: 3, fn: func(m *coherence.Msg) {
		gotData = nil
		if m.Data != nil {
			blk := *m.Data
			gotData = &blk
		}
	}}
	fab.Register(b2)

	fab.Send(&coherence.Msg{Type: coherence.ADataM, Src: 1, Dst: 3, Data: orig})
	fab.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2}) // unwatched control traffic
	eng.RunUntilQuiet()

	if gotData == nil {
		t.Fatal("data message not delivered")
	}
	if orig[5] != 0xAA {
		t.Fatal("corruption mutated the sender's block")
	}
	diff := 0
	for i := 0; i < mem.BlockBytes; i++ {
		for bit := 0; bit < 8; bit++ {
			if (orig[i]^gotData[i])&(1<<bit) != 0 {
				diff++
			}
		}
	}
	if diff != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diff)
	}
	if len(b.log) != 1 {
		t.Fatalf("unwatched control message deliveries = %d, want 1", len(b.log))
	}
	// A watched control message has no payload to corrupt: it is delivered
	// untouched and charges no corruption.
	fab.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 3})
	eng.RunUntilQuiet()
	if gotData != nil {
		t.Fatal("control message delivered with a payload")
	}
	if inj.Corrupts != 1 {
		t.Fatalf("Corrupts = %d, want 1 (control messages must be skipped)", inj.Corrupts)
	}
}

type funcController struct {
	id coherence.NodeID
	fn func(m *coherence.Msg)
}

func (f *funcController) ID() coherence.NodeID  { return f.id }
func (f *funcController) Name() string          { return "capture" }
func (f *funcController) Recv(m *coherence.Msg) { f.fn(m) }

// Fault counters surface in the metrics registry one-for-one.
func TestInjectorMetrics(t *testing.T) {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 2})
	a := &recorder{id: 1, eng: eng}
	b := &recorder{id: 2, eng: eng}
	fab.Register(a)
	fab.Register(b)
	inj := NewInjector(Plan{Seed: 3, Drop: 1}, fab)
	inj.Watch(1, 2)
	reg := obs.NewRegistry()
	inj.AttachObs(reg)
	fab.SetInterceptor(inj)
	for i := 0; i < 7; i++ {
		fab.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2})
	}
	eng.RunUntilQuiet()
	if got := reg.Counter("fault.injected").Value(); got != 7 {
		t.Fatalf("fault.injected = %d, want 7", got)
	}
	if got := reg.Counter("fault.drop").Value(); got != 7 {
		t.Fatalf("fault.drop = %d, want 7", got)
	}
}

// Every injected fault is visible on the trace bus as a KindFault event.
func TestInjectorTraceEvents(t *testing.T) {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{Latency: 2})
	a := &recorder{id: 1, eng: eng}
	b := &recorder{id: 2, eng: eng}
	fab.Register(a)
	fab.Register(b)
	ring := obs.NewRing(64)
	fab.Bus = obs.NewBus(ring)
	inj := NewInjector(Plan{Seed: 3, Drop: 1}, fab)
	inj.Watch(1, 2)
	fab.SetInterceptor(inj)
	for i := 0; i < 5; i++ {
		fab.Send(&coherence.Msg{Type: coherence.AGetS, Src: 1, Dst: 2})
	}
	eng.RunUntilQuiet()
	faults := 0
	for _, e := range ring.Events() {
		if e.Kind == obs.KindFault {
			faults++
			if e.Payload != "drop" || e.Component != "faults" {
				t.Fatalf("fault event payload=%q component=%q", e.Payload, e.Component)
			}
		}
	}
	if faults != 5 {
		t.Fatalf("%d KindFault events, want 5", faults)
	}
}

func TestNewInjectorDefaultsMaxDelay(t *testing.T) {
	eng := sim.NewEngine()
	fab := network.NewFabric(eng, 1, network.Config{})
	inj := NewInjector(Plan{Seed: 1, Delay: 0.5}, fab)
	if inj.Plan().MaxDelay != DefaultMaxDelay {
		t.Fatalf("MaxDelay = %d, want DefaultMaxDelay", inj.Plan().MaxDelay)
	}
}

// A plan with every perturbing fault on, over a link that carries pooled
// messages: each message must arrive exactly twice (Dup: 1) with its own
// payload — intact, or one bit off where it was corrupted — however the
// deliveries are delayed and reordered, while unwatched pooled traffic
// keeps recycling messages around it. The fabric takes whatever the
// injector handled out of the pool, so neither the duplicate's second
// delivery nor a corrupted copy's original can be handed to a new tenant.
// Run with the pool reusing messages and with the lifetime check poisoning
// them instead.
func TestFaultedPooledPayloadsArriveTwice(t *testing.T) {
	for _, checked := range []bool{false, true} {
		name := "pooled"
		if checked {
			name = "checked"
		}
		t.Run(name, func(t *testing.T) {
			eng := sim.NewEngine()
			fab := network.NewFabric(eng, 1, network.Config{Latency: 2, Ordered: true})
			if checked {
				fab.CheckLifetimes()
			}
			const n = 100
			var arrivals [n]int
			guard := &funcController{id: 1, fn: func(*coherence.Msg) {}}
			churn := &funcController{id: 3, fn: func(*coherence.Msg) {}}
			accel := &funcController{id: 2, fn: func(m *coherence.Msg) {
				if m.Src != 1 {
					return // churn
				}
				i := m.Acks
				arrivals[i]++
				if m.Type != coherence.ADataM || m.Data == nil {
					t.Fatalf("message %d arrived as %v", i, m)
				}
				flipped := 0
				for _, b := range m.Data {
					for x := b ^ byte(i); x != 0; x &= x - 1 {
						flipped++
					}
				}
				if flipped > 1 {
					t.Fatalf("message %d arrived with %d bits off its payload", i, flipped)
				}
			}}
			fab.Register(guard)
			fab.Register(accel)
			fab.Register(churn)
			inj := NewInjector(Plan{Seed: 11, Dup: 1, Corrupt: 0.5, Delay: 0.5, MaxDelay: 30, Reorder: 0.5}, fab)
			inj.Watch(1, 2)
			fab.SetInterceptor(inj)
			for i := 0; i < n; i++ {
				i := i
				eng.Schedule(sim.Time(3*i), func() {
					var blk mem.Block
					for j := range blk {
						blk[j] = byte(i)
					}
					fab.Send(fab.Msg(coherence.Msg{Type: coherence.ADataM, Src: 1, Dst: 2, Acks: int32(i), Data: &blk}))
					for k := 0; k < 4; k++ {
						var junk mem.Block
						junk[0] = 0xFF
						fab.Send(fab.Msg(coherence.Msg{Type: coherence.ADataS, Src: 3, Dst: 2, Data: &junk}))
					}
				})
			}
			eng.RunUntilQuiet()
			for i, got := range arrivals {
				if got != 2 {
					t.Fatalf("message %d arrived %d times, want 2", i, got)
				}
			}
			if inj.Dups != n || inj.Corrupts == 0 || inj.Delays == 0 || inj.Reorders == 0 {
				t.Fatalf("plan not exercised: %d dups, %d corrupts, %d delays, %d reorders",
					inj.Dups, inj.Corrupts, inj.Delays, inj.Reorders)
			}
			if st := fab.Stats(); !checked && !raceflag.Enabled && st.MsgsMade >= 5*n {
				t.Fatalf("pool allocated %d messages for %d sends: the churn was not recycled", st.MsgsMade, 5*n)
			}
		})
	}
}

// TestPoolResetReclaimsLostMessages: a faulty run loses messages — the
// receiver keeps what a dropped message's transaction would never give
// back, and a message delivered twice or beside a corrupted copy leaves
// the pool — yet the pool's Reset takes every message it made back: the
// same run again makes none, and Reset hands out exactly that many before
// the pool makes another. Under the lifetime check Reset keeps nothing.
func TestPoolResetReclaimsLostMessages(t *testing.T) {
	for _, checked := range []bool{false, true} {
		if !checked && raceflag.Enabled {
			continue // the lifetime check is on under -race
		}
		t.Run(fmt.Sprintf("checked=%v", checked), func(t *testing.T) {
			eng := sim.NewEngine()
			fab := network.NewFabric(eng, 1, network.Config{Latency: 2, Ordered: true})
			if checked {
				fab.CheckLifetimes()
			}
			src := &funcController{id: 1, fn: func(*coherence.Msg) {}}
			dst := &funcController{id: 2, fn: func(m *coherence.Msg) {
				if m.Acks%4 == 0 {
					m.Keep() // a transaction that never closes keeps its message
				}
			}}
			fab.Register(src)
			fab.Register(dst)
			plan := Plan{Seed: 3, Drop: 0.2, Dup: 0.2, Corrupt: 0.3}
			inj := NewInjector(plan, fab)
			inj.Watch(1, 2)
			run := func() coherence.PoolStats {
				fab.SetInterceptor(inj)
				for i := 0; i < 200; i++ {
					var blk mem.Block
					blk[0] = byte(i)
					fab.Send(fab.Msg(coherence.Msg{Type: coherence.ADataM, Src: 1, Dst: 2, Acks: int32(i), Data: &blk}))
				}
				eng.RunUntilQuiet()
				return fab.Stats()
			}
			reset := func() {
				eng.Reset()
				fab.Reset(1)
				inj.Reset(plan)
			}
			first := run()
			if first.MsgsOut == 0 || inj.Drops == 0 || inj.Dups == 0 || inj.Corrupts == 0 {
				t.Fatalf("the run lost no messages: %d out, %d drops, %d dups, %d corrupts",
					first.MsgsOut, inj.Drops, inj.Dups, inj.Corrupts)
			}
			reset()
			second := run()
			if checked {
				if second.MsgsMade != 2*first.MsgsMade {
					t.Fatalf("under the lifetime check the second run made %d messages, want %d",
						second.MsgsMade-first.MsgsMade, first.MsgsMade)
				}
				return
			}
			if second != first {
				t.Fatalf("the same run after Reset: %+v, first run %+v", second, first)
			}
			reset()
			for i := uint64(0); i < first.MsgsMade; i++ {
				fab.Msg(coherence.Msg{})
			}
			if made := fab.Stats().MsgsMade; made != first.MsgsMade {
				t.Fatalf("Reset handed out %d messages before the pool made another, want %d",
					first.MsgsMade-(made-first.MsgsMade), first.MsgsMade)
			}
			fab.Msg(coherence.Msg{})
			if made := fab.Stats().MsgsMade; made != first.MsgsMade+1 {
				t.Fatalf("the pool made %d messages past Reset's, want 1", made-first.MsgsMade)
			}
		})
	}
}
