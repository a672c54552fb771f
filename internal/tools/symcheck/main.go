// Command symcheck verifies that dotted Go references in documentation
// name symbols that actually exist. It parses every package in the repo
// into a symbol table, then scans the markdown files given on the
// command line — inline code spans and go-tagged fenced code blocks,
// the same surfaces linkcheck walks for links — for `pkg.Symbol` and
// `Type.Member` references:
//
//   - `config.Spec`, `core.Guard`: the first part matches a repo
//     package name, so the second must be declared at that package's
//     top level;
//   - `Guard.SnoopsForwarded`, `ShardSpec.Accels`: the first part
//     matches an exported repo type, so the second must be one of its
//     methods or struct fields.
//
// Inline code spans are also checked for test names: a `Test…`,
// `Benchmark…` or `Fuzz…` token must name a declared function (test
// files are parsed too), so a `go test -run TestX` that would silently
// run nothing cannot survive a rename or a deletion. A trailing `*` or `_`
// makes the token a prefix (`BenchmarkE3_Stress*`, `BenchmarkE5_*`),
// which at least one declared function must start with.
//
// Dotted tokens whose first part matches neither (metric names like
// guard.check.pass, file names like metrics.json, trace fields) are
// ignored, so prose and tool output inside fences stay lintable without
// annotations. The CI docs job runs it over docs/SCALING.md so the
// scaling guide cannot drift from the code it describes.
//
// Usage:
//
//	go run ./internal/tools/symcheck docs/SCALING.md [more.md ...]
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// symtab is the repo's symbol table: top-level declarations per package
// and members (methods + struct fields) per exported type.
type symtab struct {
	pkgs    map[string]map[string]bool // package name -> top-level idents
	members map[string]map[string]bool // exported type name -> methods/fields
	funcs   map[string]bool            // top-level function names, every package
}

func buildSymtab(root string) (*symtab, error) {
	st := &symtab{pkgs: map[string]map[string]bool{}, members: map[string]map[string]bool{}, funcs: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name == ".git" || name == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		st.addFile(f)
		return nil
	})
	return st, err
}

func (st *symtab) addFile(f *ast.File) {
	pkg := f.Name.Name
	decls := st.pkgs[pkg]
	if decls == nil {
		decls = map[string]bool{}
		st.pkgs[pkg] = decls
	}
	member := func(typeName, name string) {
		if !ast.IsExported(typeName) {
			return
		}
		m := st.members[typeName]
		if m == nil {
			m = map[string]bool{}
			st.members[typeName] = m
		}
		m[name] = true
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil || len(d.Recv.List) == 0 {
				decls[d.Name.Name] = true
				st.funcs[d.Name.Name] = true
			} else {
				member(recvTypeName(d.Recv.List[0].Type), d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					decls[s.Name.Name] = true
					switch t := s.Type.(type) {
					case *ast.StructType:
						for _, field := range t.Fields.List {
							for _, n := range field.Names {
								member(s.Name.Name, n.Name)
							}
						}
					case *ast.InterfaceType:
						for _, m := range t.Methods.List {
							for _, n := range m.Names {
								member(s.Name.Name, n.Name)
							}
						}
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						decls[n.Name] = true
					}
				}
			}
		}
	}
}

// recvTypeName unwraps *T and generic T[P] receivers to the type name.
func recvTypeName(t ast.Expr) string {
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// refRE matches a two-part dotted identifier: pkg.Symbol or Type.Member.
// Longer chains (a.b.c — metric names, trace fields) deliberately fail
// the trailing negative lookahead-style guards below.
var refRE = regexp.MustCompile(`([A-Za-z_][A-Za-z0-9_]*)\.([A-Za-z_][A-Za-z0-9_]*)`)

// codeSpans extracts the checkable code surfaces from one markdown
// line: inline `code` spans outside fences, or the whole line inside a
// fenced block.
var spanRE = regexp.MustCompile("`([^`]+)`")

// testRE matches a test, benchmark or fuzz target name (TestXxx), with
// a trailing * when the doc means every name with that prefix.
var testRE = regexp.MustCompile(`(?:Test|Benchmark|Fuzz)[A-Z0-9_][A-Za-z0-9_]*\*?`)

// checkTestNames reports the test names in one inline code span that no
// declared function has.
func checkTestNames(span string, st *symtab) (missing []string) {
	for _, loc := range testRE.FindAllStringIndex(span, -1) {
		if loc[0] > 0 && (span[loc[0]-1] == '.' || isIdentByte(span[loc[0]-1])) {
			continue // a method (f.Fuzz) or a longer identifier
		}
		name := span[loc[0]:loc[1]]
		prefix, star := strings.CutSuffix(name, "*")
		found := st.funcs[name]
		if star || strings.HasSuffix(name, "_") {
			for fn := range st.funcs {
				found = found || strings.HasPrefix(fn, prefix)
			}
		}
		if !found {
			missing = append(missing, name)
		}
	}
	return missing
}

func checkFile(path string, st *symtab) (problems []string, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	inFence, goFence := false, false
	for i, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			if !inFence {
				// Only go-tagged fences are symbol-checked: untagged
				// fences hold tool output and shell transcripts, where
				// dotted tokens are not Go references.
				goFence = strings.HasPrefix(strings.TrimPrefix(trimmed, "```"), "go")
			}
			inFence = !inFence
			continue
		}
		var spans []string
		if inFence {
			if !goFence {
				continue
			}
			spans = []string{line}
		} else {
			for _, m := range spanRE.FindAllStringSubmatch(line, -1) {
				spans = append(spans, m[1])
				for _, name := range checkTestNames(m[1], st) {
					problems = append(problems, fmt.Sprintf(
						"%s:%d: `%s` names no declared test, benchmark or fuzz target", path, i+1, name))
				}
			}
		}
		for _, span := range spans {
			for _, loc := range refRE.FindAllStringSubmatchIndex(span, -1) {
				// Skip chained tokens (a.b.c): if the match is preceded or
				// followed by another ".ident" it is a metric or trace name,
				// not a Go reference.
				if loc[0] > 0 && (span[loc[0]-1] == '.' || isIdentByte(span[loc[0]-1])) {
					continue
				}
				if loc[1] < len(span) && span[loc[1]] == '.' {
					continue
				}
				first, second := span[loc[2]:loc[3]], span[loc[4]:loc[5]]
				if decls, ok := st.pkgs[first]; ok {
					// Unexported second parts are skipped when missing: a
					// token like `fuzz.obs` is a file name that happens to
					// share a package's name, not a stale reference.
					if !decls[second] && !memberOf(st, first, span, loc) && ast.IsExported(second) {
						problems = append(problems, fmt.Sprintf(
							"%s:%d: `%s.%s` names no top-level symbol in package %s",
							path, i+1, first, second, first))
					}
					continue
				}
				if members, ok := st.members[first]; ok {
					if !members[second] && ast.IsExported(second) {
						problems = append(problems, fmt.Sprintf(
							"%s:%d: `%s.%s` names no method or field of type %s",
							path, i+1, first, second, first))
					}
				}
				// First part matches no package and no type: not a Go
				// reference (file name, metric, prose) — ignored.
			}
		}
	}
	return problems, nil
}

// memberOf handles the rare shadowing case where a package and an
// exported type share a name: accept the member reading too.
func memberOf(st *symtab, first string, span string, loc []int) bool {
	members, ok := st.members[first]
	return ok && members[span[loc[4]:loc[5]]]
}

func isIdentByte(b byte) bool {
	return b == '_' || b >= '0' && b <= '9' || b >= 'A' && b <= 'Z' || b >= 'a' && b <= 'z'
}

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: symcheck <doc.md>...")
		os.Exit(2)
	}
	st, err := buildSymtab(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "symcheck:", err)
		os.Exit(2)
	}
	var problems []string
	for _, path := range os.Args[1:] {
		p, err := checkFile(path, st)
		if err != nil {
			fmt.Fprintln(os.Stderr, "symcheck:", err)
			os.Exit(2)
		}
		problems = append(problems, p...)
	}
	sort.Strings(problems)
	for _, p := range problems {
		fmt.Println(p)
	}
	if len(problems) > 0 {
		fmt.Fprintf(os.Stderr, "symcheck: %d stale symbol references\n", len(problems))
		os.Exit(1)
	}
}
