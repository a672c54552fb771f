package coherence

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// covSpec is a generatable description of one shard's Coverage: which
// pairs its controller declared, how often each was visited, and which
// undeclared pairs slipped through. It implements quick.Generator so
// testing/quick can drive the merge properties over random coverages.
// Pairs are indices into pairUniverse.
type covSpec struct {
	Declared   []int
	Visits     map[int]uint64
	Unexpected []string
}

// quickTable is the vocabulary the specs share, and pairUniverse the pool
// of (state, event) pairs they draw from; a small universe maximizes
// overlap between generated coverages, which is where merge bugs live.
var (
	quickTable   = NewTable([]string{"I", "S", "E", "M", "B"}, []string{"Load", "Store", "Inv", "Repl", "DataS"})
	pairUniverse = [][2]int{
		{0, 0}, {0, 1}, {1, 0}, {1, 1}, {1, 2}, // I/Load I/Store S/Load S/Store S/Inv
		{2, 0}, {2, 1}, {3, 2}, {3, 3}, {4, 4}, // E/Load E/Store M/Inv M/Repl B/DataS
	}
)

// Generate implements quick.Generator.
func (covSpec) Generate(r *rand.Rand, size int) reflect.Value {
	s := covSpec{Visits: map[int]uint64{}}
	for p := range pairUniverse {
		if r.Intn(2) == 0 {
			s.Declared = append(s.Declared, p)
		}
	}
	n := r.Intn(size%len(pairUniverse) + 1)
	for i := 0; i < n; i++ {
		s.Visits[r.Intn(len(pairUniverse))] += uint64(r.Intn(5) + 1)
	}
	for i := r.Intn(3); i > 0; i-- {
		s.Unexpected = append(s.Unexpected, fmt.Sprintf("X%d/Ev", r.Intn(4)))
	}
	return reflect.ValueOf(s)
}

// build materializes the spec as a real Coverage, declared by a Rules
// table with one cell per declared pair.
func (s covSpec) build() *Coverage {
	var rows []Row[int, struct{}]
	for _, p := range s.Declared {
		rows = append(rows, Row[int, struct{}]{St: pairUniverse[p][0], Evs: pairUniverse[p][1:]})
	}
	c := NewRules("quick", quickTable, rows).Coverage()
	for p, n := range s.Visits {
		for i := uint64(0); i < n; i++ {
			c.Record(pairUniverse[p][0], pairUniverse[p][1])
		}
	}
	// Unexpected entries are injected directly: they model visits a
	// *different* shard's declaration table rejected.
	c.Unexpected = append(c.Unexpected, s.Unexpected...)
	return c
}

// fingerprint reduces a Coverage to a canonical comparable form: visit
// counts, declared set, and the Unexpected list as a sorted multiset.
// The campaign aggregator merges shards in a fixed order precisely
// because Unexpected ORDER is the one thing merge order changes.
type fingerprint struct {
	Visits     map[string]uint64
	Declared   []string
	Unexpected []string
	Summary    string
}

func fp(c *Coverage) fingerprint {
	f := fingerprint{Visits: c.Snapshot(), Summary: c.Summary()}
	for i, d := range c.declared {
		if d {
			f.Declared = append(f.Declared, c.pairName(i))
		}
	}
	sort.Strings(f.Declared)
	f.Unexpected = append(f.Unexpected, c.Unexpected...)
	sort.Strings(f.Unexpected)
	return f
}

func mergeAll(specs ...covSpec) *Coverage {
	out := NewCoverage("quick", nil)
	for _, s := range specs {
		out.Merge(s.build())
	}
	return out
}

// TestMergeCommutative: A+B == B+A (up to Unexpected order).
func TestMergeCommutative(t *testing.T) {
	prop := func(a, b covSpec) bool {
		return reflect.DeepEqual(fp(mergeAll(a, b)), fp(mergeAll(b, a)))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestMergeAssociative: (A+B)+C == A+(B+C).
func TestMergeAssociative(t *testing.T) {
	prop := func(a, b, c covSpec) bool {
		left := mergeAll(a, b)
		left.Merge(c.build())
		rightTail := mergeAll(b, c)
		right := NewCoverage("quick", nil)
		right.Merge(a.build())
		right.Merge(rightTail)
		return reflect.DeepEqual(fp(left), fp(right))
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestMergeIdentityAndIdempotence: merging an empty coverage changes
// nothing, and re-merging the same shard doubles visit counts without
// inventing new distinct pairs — the set of visited/declared pairs is
// idempotent even though counts accumulate.
func TestMergeIdentityAndIdempotence(t *testing.T) {
	prop := func(a covSpec) bool {
		c := a.build()
		before := fp(c)
		c.Merge(NewCoverage("empty", nil))
		if !reflect.DeepEqual(fp(c), before) {
			return false
		}

		twice := mergeAll(a, a)
		once := a.build()
		if twice.Visited() != once.Visited() || twice.Possible() != once.Possible() {
			return false
		}
		for k, v := range once.Snapshot() {
			if twice.Snapshot()[k] != 2*v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

// TestMergePermutationDeterminism is the property the campaign
// aggregator's byte-identical-output guarantee rests on: merging any
// permutation of the same shard set produces the same counts, the same
// Summary line, and the same Unexpected multiset.
func TestMergePermutationDeterminism(t *testing.T) {
	prop := func(a, b, c, d covSpec, seed int64) bool {
		specs := []covSpec{a, b, c, d}
		base := fp(mergeAll(specs...))
		perm := rand.New(rand.NewSource(seed)).Perm(len(specs))
		shuffled := make([]covSpec, len(specs))
		for i, j := range perm {
			shuffled[i] = specs[j]
		}
		got := fp(mergeAll(shuffled...))
		return reflect.DeepEqual(got, base) && got.Summary == base.Summary
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}
