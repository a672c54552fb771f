package config

import "sync"

// A closed machine is parked for the next Build of its shape, which resets
// it in place instead of constructing a new one: the engine's slab, the
// pools, the channels, the cache arrays and the random streams a machine
// grew in one run serve the next; the streams' sources are not parked
// (sim.Engine.Close hands them to a free list). The park is process-wide
// and bounded (parkCap machines); past the bound the machine parked
// longest ago is dropped for the collector.

// shape is what construct builds from a normalized spec: the components,
// their wiring and geometry, and the instruments registered up front. Two
// specs of one shape differ only in what reset applies (seed, guard
// policy, permission table, fault plan, custom accelerator, recorder).
type shape struct {
	host                HostKind
	org                 Org
	cpus, cores, accels int
	small               bool
	accelL1KB           int
	lat                 Latencies
	// spans registers the guards' span histograms; custom, faults and
	// recorder say whether the machine has custom accelerators, a fault
	// injector and a consistency recorder.
	spans, custom, faults, recorder bool
}

// shapeOf returns the shape of a normalized spec.
func shapeOf(spec Spec) shape {
	lat := DefaultLatencies()
	if spec.Lat != nil {
		lat = *spec.Lat
	}
	return shape{host: spec.Host, org: spec.Org, cpus: spec.CPUs, cores: spec.AccelCores, accels: spec.Accels,
		small: spec.Small, accelL1KB: spec.AccelL1KB, lat: lat, spans: spec.Spans,
		custom: spec.CustomAccel != nil, faults: spec.Faults != nil && spec.Faults.Active(),
		recorder: spec.Consistency != nil}
}

// parkCap bounds the machines parked at once. A campaign keeps about one
// per shape per worker: the benchmark's adversarial sweep has about 100
// shapes on two workers.
const parkCap = 256

var parked struct {
	sync.Mutex
	idle map[shape][]parkedSystem
	n    int
	seq  uint64
	hits uint64 // machines handed out again
	off  bool   // parking turned off (tests)
}

// parkedSystem is a parked machine and its place in parking order.
type parkedSystem struct {
	s   *System
	seq uint64
}

// park adds a closed machine to the park.
func park(s *System) {
	parked.Lock()
	defer parked.Unlock()
	if parked.off {
		return
	}
	if parked.idle == nil {
		parked.idle = map[shape][]parkedSystem{}
	}
	if parked.n == parkCap {
		evictOldest()
	}
	parked.seq++
	k := shapeOf(s.Spec)
	parked.idle[k] = append(parked.idle[k], parkedSystem{s, parked.seq})
	parked.n++
}

// evictOldest drops the machine parked longest ago. Each shape's list is
// in parking order, so it is the oldest of the lists' first machines.
func evictOldest() {
	var oldest []parkedSystem
	var key shape
	for k, list := range parked.idle {
		if len(list) > 0 && (oldest == nil || list[0].seq < oldest[0].seq) {
			oldest, key = list, k
		}
	}
	copy(oldest, oldest[1:])
	oldest[len(oldest)-1] = parkedSystem{}
	parked.idle[key] = oldest[:len(oldest)-1]
	parked.n--
}

// unpark takes the machine of spec's shape parked last, or returns nil.
func unpark(spec Spec) *System {
	parked.Lock()
	defer parked.Unlock()
	if parked.off {
		return nil
	}
	k := shapeOf(spec)
	list := parked.idle[k]
	if len(list) == 0 {
		return nil
	}
	s := list[len(list)-1].s
	list[len(list)-1] = parkedSystem{}
	parked.idle[k] = list[:len(list)-1] // an empty list keeps its array for the next park
	parked.n--
	parked.hits++
	return s
}

// Reset returns the machine to its just-built state for a run of spec,
// keeping all its storage: what Build does with a parked machine. spec
// must have the machine's shape.
func (s *System) Reset(spec Spec) {
	spec = normalize(spec)
	if shapeOf(spec) != shapeOf(s.Spec) {
		panic("config: Reset with a spec of another shape (" + spec.Name() + " on " + s.Spec.Name() + ")")
	}
	s.reset(spec)
}
