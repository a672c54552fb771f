package main

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

func TestTestNames(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "x_test.go", `package x
func TestGuardTimeout() {}
func BenchmarkE3_Stress() {}
func (f fixture) Fuzz() {}
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := newSymtab()
	st.addFile(f)
	doc := filepath.Join(t.TempDir(), "doc.md")
	body := "`go test -run TestGuardTimeout` and `BenchmarkE3_Stress*`, `BenchmarkE3_*`, `f.Fuzz`, `Tester`\n" +
		"`go test ./internal/core -run TestTimeout` and `BenchmarkE4_*`\n" +
		"```\nTestInsideAFence is tool output\n```\n"
	if err := os.WriteFile(doc, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := checkFile(doc, st)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		doc + ":2: `TestTimeout` names no declared test, benchmark or fuzz target",
		doc + ":2: `BenchmarkE4_*` names no declared test, benchmark or fuzz target",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("problems:\n%q\nwant:\n%q", got, want)
	}
}

// Methods of generic types are members of the type, whatever the number of
// type parameters.
func TestGenericReceivers(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "x.go", `package x
func (s *Set[T]) Add() {}
func (r *Rules[S, V]) At() {}
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := newSymtab()
	st.addFile(f)
	for typ, m := range map[string]string{"Set": "Add", "Rules": "At"} {
		if !st.members[typ][m] {
			t.Errorf("%s.%s not recorded", typ, m)
		}
	}
}

// Fields and methods of an embedded type, exported or not, are members of
// the type that embeds it.
func TestPromotedMembers(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "x.go", `package x
type Guard struct {
	id int
	runState
}
type runState struct{ Parked uint64 }
func (r *runState) Reset() {}
`, 0)
	if err != nil {
		t.Fatal(err)
	}
	st := newSymtab()
	st.addFile(f)
	st.promote()
	for _, m := range []string{"Parked", "Reset"} {
		if !st.members["Guard"][m] {
			t.Errorf("Guard.%s not recorded", m)
		}
	}
}
