package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"sort"
	"strings"

	"crossingguard/internal/campaign"
	"crossingguard/internal/coherence"
	"crossingguard/internal/network"
	"crossingguard/internal/obs"
)

// fingerprint hashes everything the simulator decides for one batch:
// per-shard spec, end tick, memops, traffic by channel and type,
// violations by code and the metrics registry. It must be equal across
// every batch of a run and across untraced, traced, spans-on and recorded
// runs; two commits with equal fingerprints simulated the same thing.
// Engine event counts stay out: a change that removes poll events without
// moving any simulated result is exactly what the fingerprint must allow.
type fingerprint struct{ h hash.Hash }

func newFingerprint() *fingerprint { return &fingerprint{h: sha256.New()} }

func (f *fingerprint) line(format string, args ...any) {
	fmt.Fprintf(f.h, format+"\n", args...)
}

func (f *fingerprint) sum() string { return hex.EncodeToString(f.h.Sum(nil))[:16] }

// machine folds one single-machine shard in.
func (f *fingerprint) machine(sh *machineShard, r *shardRun) {
	f.line("shard %s seed=%d end=%d memops=%d cycles=%d", sh.Cell, sh.Spec.Seed, r.endTick, r.memops, r.cycles)
	type chanStats struct {
		src, dst coherence.NodeID
		s        *network.Stats
	}
	var chans []chanStats
	r.sys.Fab.VisitStats(func(src, dst coherence.NodeID, s *network.Stats) {
		chans = append(chans, chanStats{src, dst, s})
	})
	sort.Slice(chans, func(i, j int) bool {
		if chans[i].src != chans[j].src {
			return chans[i].src < chans[j].src
		}
		return chans[i].dst < chans[j].dst
	})
	for _, c := range chans {
		f.line("chan %d>%d msgs=%d bytes=%d", c.src, c.dst, c.s.Msgs, c.s.Bytes)
		for t := coherence.MsgType(0); int(t) < coherence.NumMsgTypes; t++ {
			if n := c.s.MsgsByType[t]; n != 0 {
				f.line(" %d:%d/%d", t, n, c.s.BytesByType[t])
			}
		}
	}
	f.codes(r.sys.Log.ByCode)
	f.registry(r.sys.Obs)
}

// shard folds one campaign shard result in (the machine itself is out of
// reach inside campaign.RunShard, so traffic comes from the registry).
func (f *fingerprint) shard(r *campaign.ShardResult) {
	f.line("shard %s end=%d stores=%d loads=%d sent=%d injected=%d violations=%d quarantined=%v recoveries=%d",
		campaign.FormatSpec(r.Spec), r.Res.EndTime, r.Res.Stores, r.Res.Loads,
		r.Sent, r.Injected, r.Violations, r.Quarantined, r.Recoveries)
	f.codes(r.ByCode)
	f.registry(r.Obs)
}

func (f *fingerprint) codes(byCode map[string]uint64) {
	codes := make([]string, 0, len(byCode))
	for c := range byCode {
		codes = append(codes, c)
	}
	sort.Strings(codes)
	for _, c := range codes {
		f.line("violation %s=%d", c, byCode[c])
	}
}

// registry folds a metrics snapshot in. Span-phase histograms exist only
// when Spec.Spans is on, which must not change the fingerprint.
func (f *fingerprint) registry(reg *obs.Registry) {
	snap := reg.Snapshot()
	for _, name := range sortedNames(snap.Counters) {
		f.line("c %s=%d", name, snap.Counters[name])
	}
	for _, name := range sortedNames(snap.Gauges) {
		g := snap.Gauges[name]
		f.line("g %s=%d/%d", name, g.Value, g.Max)
	}
	for _, name := range sortedNames(snap.Histograms) {
		if strings.HasPrefix(name, "xg.span.") {
			continue
		}
		h := snap.Histograms[name]
		f.line("h %s n=%d mean=%v p50=%v p99=%v min=%v max=%v", name, h.N, h.Mean, h.P50, h.P99, h.Min, h.Max)
	}
}

func sortedNames[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
