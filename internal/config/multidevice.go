package config

import (
	"fmt"

	"crossingguard/internal/accel"
	"crossingguard/internal/coherence"
	"crossingguard/internal/core"
	"crossingguard/internal/network"
	"crossingguard/internal/seq"
)

// Additional node ids for the second device.
const (
	nodeXG2      coherence.NodeID = 50
	nodeAccelL2B coherence.NodeID = 61
	nodeAccelB   coherence.NodeID = 210
	nodeAccSeqB  coherence.NodeID = 310
)

// MultiSystem is a host carrying TWO heterogeneous accelerator devices,
// each behind its own Crossing Guard instance ("one instance of Crossing
// Guard per accelerator in the system", §2): device A is a single-level
// Table 1 accelerator behind a Full State guard; device B is a two-level
// hierarchy (two cores, shared accelerator L2) behind a Transactional
// guard. The two devices are mutually untrusted: each guard only ever
// sees its own accelerator.
type MultiSystem struct {
	*System
	// DeviceASeq drives the single-level device; DeviceBSeqs the
	// two-level device's cores.
	DeviceASeq  *seq.Sequencer
	DeviceBSeqs []*seq.Sequencer
	GuardA      *core.Guard
	GuardB      *core.Guard
}

// BuildMultiDevice wires the two-device machine on the chosen host.
func BuildMultiDevice(host HostKind, cpus int, seed int64, small bool) *MultiSystem {
	// Start from a single-device 1L system (device A)...
	base := Build(Spec{Host: host, Org: OrgXGFull1L, CPUs: cpus, AccelCores: 1,
		Seed: seed, Small: small, ExtraHammerPeers: 1, ForceTxnMods: true})
	ms := &MultiSystem{System: base, DeviceASeq: base.AccelSeqs[0], GuardA: base.Guards[0]}
	lat := DefaultLatencies()
	if base.Spec.Lat != nil {
		lat = *base.Spec.Lat
	}
	spec := base.Spec

	// ...then attach device B: a Transactional guard fronting a shared
	// accelerator L2 with two cores.
	gcfg := base.guardCfg(spec, lat)
	gcfg.Mode = core.Transactional
	var gB *core.Guard
	if host == HostHammer {
		// The broadcast set was sized for one extra cache (extraCaches).
		responses := cpus + 2 // device A's guard + device B's guard + ... peers+mem
		gB = core.NewHammerGuard(nodeXG2, "xgB", base.Eng, base.Fab,
			nodeAccelL2B, nodeHost, responses, gcfg, base.Log)
		base.HDir.AddPeer(gB.ID())
	} else {
		gB = core.NewMESIGuard(nodeXG2, "xgB", base.Eng, base.Fab,
			nodeAccelL2B, nodeHost, gcfg, base.Log)
	}
	gB.SetAccelTag(1)
	ms.GuardB = gB
	base.Guards = append(base.Guards, gB)
	base.guardAccelView = append(base.guardAccelView, nil) // Transactional: no table
	base.outstandingFns = append(base.outstandingFns, gB.Outstanding)

	acfg := base.accelCfg(small)
	l2 := accel.NewSharedL2(nodeAccelL2B, "accelL2B", base.Eng, base.Fab, nodeXG2, acfg)
	base.AccelL2 = l2
	base.AccelL2s = append(base.AccelL2s, l2)
	base.register(l2, guardedCache)
	grp := innerGroup{l2: l2}
	base.Fab.SetRoutePair(nodeAccelL2B, nodeXG2, network.Config{Latency: lat.Crossing, Jitter: lat.Jitter, Ordered: true})
	for i := 0; i < 2; i++ {
		id := nodeAccelB + coherence.NodeID(i)
		l1 := accel.NewInnerL1(id, fmt.Sprintf("accelB.L1[%d]", i), base.Fab, nodeAccelL2B, acfg)
		base.InnerL1s = append(base.InnerL1s, l1)
		base.register(l1, innerCache)
		grp.l1s = append(grp.l1s, l1)
		sq := seq.New(nodeAccSeqB+coherence.NodeID(i), fmt.Sprintf("accB[%d]", i), base.Eng, base.Fab, id)
		ms.DeviceBSeqs = append(ms.DeviceBSeqs, sq)
		base.AccelSeqs = append(base.AccelSeqs, sq)
		base.accelSeqDevs = append(base.accelSeqDevs, 1)
		base.Fab.SetRoutePair(sq.ID(), id, network.Config{Latency: lat.CoreToCache, Ordered: true})
		base.Fab.SetRoutePair(id, nodeAccelL2B, network.Config{Latency: lat.AccelHop, Jitter: 1, Ordered: true})
	}
	base.innerGroups = append(base.innerGroups, grp)
	return ms
}
