package core

import (
	"testing"

	"crossingguard/internal/coherence"
	"crossingguard/internal/mem"
	"crossingguard/internal/network"
	"crossingguard/internal/raceflag"
	"crossingguard/internal/sim"
)

// dataSink records, by value, the data-bearing messages it receives.
type dataSink struct {
	id   coherence.NodeID
	got  []coherence.MsgType
	data []mem.Block
}

func (d *dataSink) ID() coherence.NodeID { return d.id }
func (d *dataSink) Name() string         { return "dataSink" }
func (d *dataSink) Recv(m *coherence.Msg) {
	if m.Data != nil {
		d.got = append(d.got, m.Type)
		d.data = append(d.data, *m.Data)
	}
}

// Regression for the zero-block substitution (Guarantees 2a and 2c) under
// message recycling: the guard answers the host on a misbehaving owner's
// behalf with a block of zeros, and that block now travels in a recycled
// message whose storage last carried somebody's real data. The host must
// see 64 zero bytes, never the previous tenant's.
func TestZeroSubstitutionSurvivesRecycling(t *testing.T) {
	const line, dir, requestor = mem.Addr(0x4000), coherence.NodeID(10), coherence.NodeID(11)
	for _, host := range []string{"hammer", "mesi"} {
		for _, path := range []string{"2a: owner answers InvAck", "2c: owner never answers"} {
			t.Run(host+"/"+path, func(t *testing.T) {
				eng := sim.NewEngine()
				fab := network.NewFabric(eng, 1, network.Config{Latency: 1, Ordered: true})
				fab.Register(&accelSink{id: 200, eng: eng})
				fab.Register(&hostSink{id: dir})
				req := &dataSink{id: requestor}
				fab.Register(req)
				cfg := Config{Mode: FullState, GuardLat: 1, Timeout: 500}
				var g *Guard
				fwd := coherence.HFwdGetM
				if host == "hammer" {
					g = NewHammerGuard(40, "xg", eng, fab, 200, dir, 1, cfg, coherence.NewErrorLog())
				} else {
					g = NewMESIGuard(40, "xg", eng, fab, 200, dir, cfg, coherence.NewErrorLog())
					fwd = coherence.MFwdGetM
				}

				// Fill the free list with messages whose blocks are dirty.
				var junk mem.Block
				for i := range junk {
					junk[i] = 0xEE
				}
				for i := 0; i < 8; i++ {
					fab.Send(fab.Msg(coherence.Msg{Type: coherence.HData, Addr: 0x9000, Src: 40, Dst: dir, Data: &junk}))
				}
				eng.RunUntilQuiet()
				made := fab.Stats().MsgsMade

				// The accelerator owns the line in M; the host wants it back.
				tableView{g, line}.grant(GrantM, GrantM, false, nil, false)
				g.Recv(&coherence.Msg{Type: fwd, Addr: line, Src: dir, Dst: 40, Requestor: requestor})
				eng.RunUntil(10)
				if path[1] == 'a' {
					g.Recv(&coherence.Msg{Type: coherence.AInvAck, Addr: line, Src: 200, Dst: 40})
				}
				eng.RunUntilQuiet()

				if g.errors == 0 {
					t.Fatal("no guarantee violation recorded")
				}
				if len(req.data) != 1 {
					t.Fatalf("requestor received %d data messages (%v), want 1", len(req.data), req.got)
				}
				if req.data[0] != (mem.Block{}) {
					t.Fatalf("host saw %v, want 64 zero bytes", req.data[0])
				}
				if !raceflag.Enabled && fab.Stats().MsgsMade != made {
					t.Fatalf("pool grew from %d to %d messages: the substitution did not ride a recycled one",
						made, fab.Stats().MsgsMade)
				}
			})
		}
	}
}
