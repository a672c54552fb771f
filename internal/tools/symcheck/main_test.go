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
	st := &symtab{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, funcs: map[string]bool{}}
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
