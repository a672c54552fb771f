package perm

import (
	"testing"
	"testing/quick"

	"crossingguard/internal/mem"
)

func TestDefaultDeny(t *testing.T) {
	tb := NewTable()
	if got := tb.Lookup(0x5000); got != None {
		t.Fatalf("ungranted page = %v, want None", got)
	}
	if None.AllowsRead() || None.AllowsWrite() {
		t.Fatal("None must deny everything")
	}
}

func TestAccessPredicates(t *testing.T) {
	if !ReadOnly.AllowsRead() || ReadOnly.AllowsWrite() {
		t.Fatal("ReadOnly predicates wrong")
	}
	if !ReadWrite.AllowsRead() || !ReadWrite.AllowsWrite() {
		t.Fatal("ReadWrite predicates wrong")
	}
}

func TestAccessString(t *testing.T) {
	for a, want := range map[Access]string{None: "None", ReadOnly: "ReadOnly", ReadWrite: "ReadWrite"} {
		if a.String() != want {
			t.Errorf("%d.String() = %q", a, a.String())
		}
	}
}

func TestGrantPageGranularity(t *testing.T) {
	tb := NewTable()
	tb.Grant(0x5123, ReadWrite) // grants the whole page 0x5000
	if tb.Lookup(0x5fff) != ReadWrite {
		t.Fatal("grant not page-granular")
	}
	if tb.Lookup(0x6000) != None {
		t.Fatal("grant leaked to next page")
	}
}

func TestGrantRange(t *testing.T) {
	tb := NewTable()
	tb.GrantRange(0x1800, 0x2000, ReadOnly) // spans pages 0x1000..0x3000
	for _, a := range []mem.Addr{0x1800, 0x2000, 0x3000, 0x37ff} {
		if tb.Lookup(a) != ReadOnly {
			t.Fatalf("addr %v not granted", a)
		}
	}
	if tb.Lookup(0x4000) != None {
		t.Fatal("range overshot")
	}
}

func TestDefaultAccess(t *testing.T) {
	tb := NewTable()
	tb.Default = ReadWrite
	if tb.Lookup(0x9000) != ReadWrite {
		t.Fatal("Default not honored")
	}
	tb.Grant(0x9000, ReadOnly)
	if tb.Lookup(0x9000) != ReadOnly {
		t.Fatal("explicit grant should override Default")
	}
}

func TestCacheWarmth(t *testing.T) {
	tb := NewTable()
	tb.Grant(0x1000, ReadOnly)
	tb.Lookup(0x1000)
	tb.Lookup(0x1040) // same page: warm
	if tb.Lookups != 2 || tb.Misses != 1 {
		t.Fatalf("Lookups=%d Misses=%d, want 2/1", tb.Lookups, tb.Misses)
	}
}

func TestPeekDoesNotWarm(t *testing.T) {
	tb := NewTable()
	tb.Grant(0x1000, ReadWrite)
	if tb.Peek(0x1000) != ReadWrite {
		t.Fatal("Peek wrong")
	}
	if tb.Lookups != 0 || tb.Misses != 0 {
		t.Fatal("Peek should not touch stats")
	}
}

// Property: Lookup always agrees with Peek, and rights never exceed what
// was granted for that page.
func TestPropertyLookupPeekAgree(t *testing.T) {
	f := func(pages []uint8, addr uint16) bool {
		tb := NewTable()
		for i, p := range pages {
			tb.Grant(mem.Addr(p)*mem.PageBytes, Access(i%3))
		}
		a := mem.Addr(addr)
		return tb.Peek(a) == tb.Lookup(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// A reset table is a new one: every page denied, the default back to None,
// the counters at zero and every page cold again.
func TestResetTable(t *testing.T) {
	tb := NewTable()
	tb.Grant(0x5000, ReadWrite)
	tb.Default = ReadOnly
	tb.Lookup(0x5000)
	tb.Lookup(0x9000)
	tb.Reset()
	if tb.Lookups != 0 || tb.Misses != 0 {
		t.Fatalf("a reset table counts %d lookups, %d misses", tb.Lookups, tb.Misses)
	}
	if got := tb.Lookup(0x5000); got != None {
		t.Fatalf("a reset table grants %v", got)
	}
	if got := tb.Lookup(0x9000); got != None || tb.Misses != 2 {
		t.Fatalf("a reset table gives %v by default, %d misses after two cold pages", got, tb.Misses)
	}
}
