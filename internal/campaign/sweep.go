package campaign

import (
	"crossingguard/internal/accel"
	"crossingguard/internal/config"
	"crossingguard/internal/faults"
)

// FuzzOrgs is the guard organizations the fuzz campaign sweeps — only
// organizations with a guard make sense to fuzz.
var FuzzOrgs = []config.Org{config.OrgXGFull1L, config.OrgXGTxn1L, config.OrgXGFull2L, config.OrgXGTxn2L}

// StressSweep builds the E3 shard set: (host x organization x seed),
// seeds 1..seeds, in the deterministic order the serial driver used.
func StressSweep(seeds, cpus, cores, stores int) []ShardSpec {
	var specs []ShardSpec
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range config.AllOrgs {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				specs = append(specs, ShardSpec{Kind: KindStress, Host: host, Org: org,
					Seed: seed, CPUs: cpus, Cores: cores, Stores: stores})
			}
		}
	}
	return specs
}

// FuzzSweep builds the E4 shard set: (host x guard organization x
// {shared, confined} x seed).
func FuzzSweep(seeds, cpus, messages int) []ShardSpec {
	var specs []ShardSpec
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range FuzzOrgs {
			for _, confined := range []bool{false, true} {
				for seed := int64(1); seed <= int64(seeds); seed++ {
					specs = append(specs, ShardSpec{Kind: KindFuzz, Host: host, Org: org,
						Seed: seed, CPUs: cpus, Messages: messages, Confined: confined})
				}
			}
		}
	}
	return specs
}

// AccelCounts is the device counts MultiAccelSweep covers: the
// historical single-accelerator machine, then power-of-two machines up
// to sixteen devices, every device behind its own guard. The larger
// counts exercise the host protocol's broadcast/directory paths with a
// peer set far beyond the paper's evaluation.
var AccelCounts = []int{1, 2, 4, 8, 16}

// MultiAccelSweep builds the multi-accelerator shard set: (host x guard
// organization x accel count x seed) stress shards, plus a confined
// chaos cell per (host x org x accel count x fault preset) where the
// extra adversaries target the shared lines the first device fights
// over. It is the accel-count axis of the campaign: every cell with
// Accels=1 matches the corresponding single-accelerator sweep cell.
func MultiAccelSweep(seeds, cpus, stores, messages int) []ShardSpec {
	var specs []ShardSpec
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range FuzzOrgs {
			for _, accels := range AccelCounts {
				for seed := int64(1); seed <= int64(seeds); seed++ {
					specs = append(specs, ShardSpec{Kind: KindStress, Host: host, Org: org,
						Seed: seed, CPUs: cpus, Cores: 1, Accels: accels, Stores: stores})
				}
			}
		}
	}
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range FuzzOrgs {
			for _, accels := range AccelCounts {
				for _, preset := range faults.Presets {
					cell := ShardSpec{Kind: KindChaos, Host: host, Org: org,
						CPUs: cpus, Messages: messages, Accels: accels,
						Model: accel.AdvStaleWriter.String(), Faults: preset.Plan, Confined: true}
					for seed := int64(1); seed <= int64(seeds); seed++ {
						specs = append(specs, cell.WithSeed(seed))
					}
				}
			}
		}
	}
	return specs
}

// ChaosSweep builds the chaos shard set: (host x guard organization x
// adversary model x fault preset x {shared, confined} x seed). Fault-plan
// seeds are offset by the shard seed (WithSeed) so each cell draws an
// independent — but replayable — fault schedule.
func ChaosSweep(seeds, cpus, messages int) []ShardSpec {
	var specs []ShardSpec
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range FuzzOrgs {
			for _, model := range accel.AllAdvModels {
				for _, preset := range faults.Presets {
					for _, confined := range []bool{false, true} {
						cell := ShardSpec{Kind: KindChaos, Host: host, Org: org,
							CPUs: cpus, Messages: messages,
							Model: model.String(), Faults: preset.Plan, Confined: confined}
						for seed := int64(1); seed <= int64(seeds); seed++ {
							specs = append(specs, cell.WithSeed(seed))
						}
					}
				}
			}
		}
	}
	// Cross-device false sharing: two devices, each behind its own guard,
	// hammering the same 8 lines (the device-1 adversary's victim pool is
	// device 0's pool) while the CPUs stress them too — every line
	// ping-pongs through two guards and the host protocol at once.
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range FuzzOrgs {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				specs = append(specs, ShardSpec{Kind: KindChaos, Host: host, Org: org,
					Seed: seed, CPUs: cpus, Messages: messages, Accels: 2,
					Model: accel.AdvStaleWriter.String(), Confined: true})
			}
		}
	}
	return specs
}

// RecoverySweep builds the chaos-recovery shard set: flapper adversaries
// — correct, then a violation burst, then correct again — behind guards
// armed for quarantine AND readmission. Each cell asserts graceful
// degradation with reintegration: the device trips quarantine, the
// guard drains and resets it, and the recovered device runs clean under
// the new epoch; confined permissions plus consistency recording prove
// the host never reads corrupted data across the reset.
func RecoverySweep(seeds, cpus, messages int) []ShardSpec {
	var specs []ShardSpec
	for _, host := range []config.HostKind{config.HostHammer, config.HostMESI} {
		for _, org := range FuzzOrgs {
			for seed := int64(1); seed <= int64(seeds); seed++ {
				specs = append(specs, ShardSpec{Kind: KindChaos, Host: host, Org: org,
					Seed: seed, CPUs: cpus, Messages: messages,
					Model: accel.AdvFlapper.String(), Confined: true, Consistency: true,
					RecoverAfter: 5000})
			}
		}
	}
	return specs
}

// WithSeed returns the cell s at another seed, as the sweeps build it:
// the shard seed, and an active fault plan's seed offset by the same
// amount, so every seed of a chaos cell draws its own fault schedule. The
// sweeps, the fixed-set runner (Seeded) and BudgetGenerator all reseed
// through it.
func (s ShardSpec) WithSeed(seed int64) ShardSpec {
	if s.Faults.Active() {
		s.Faults.Seed += seed - s.Seed
	}
	s.Seed = seed
	return s
}

// Seeded returns the fixed shard set of a campaign: every cell of base (a
// sweep built with one seed) at seeds 1..seeds, seed by seed.
func Seeded(base []ShardSpec, seeds int) []ShardSpec {
	specs := make([]ShardSpec, 0, len(base)*seeds)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, s := range base {
			specs = append(specs, s.WithSeed(seed))
		}
	}
	return specs
}

// BudgetGenerator returns a deterministic infinite shard stream for
// time-budgeted campaigns: it cycles through base (a fixed configuration
// sweep, reseeded by WithSeed) drawing a fresh seed on every full cycle.
// gen(i) depends only on i, so a budgeted run is a prefix of one fixed
// infinite sequence — any two runs agree on the shards both ran.
func BudgetGenerator(base []ShardSpec) func(i int) ShardSpec {
	if len(base) == 0 {
		panic("campaign: BudgetGenerator with empty base sweep")
	}
	return func(i int) ShardSpec {
		return base[i%len(base)].WithSeed(int64(i/len(base)) + 1)
	}
}
