// Package lint implements the repo-specific static checks that a generic
// `go vet` cannot know about, run via `go vet -vettool` (cmd/crossinvvet)
// or directly over source directories. It is deliberately stdlib-only
// (go/ast + go/parser, no type information): the rules are syntactic
// idioms the codebase's concurrency audits pinned, and a syntactic pass
// keeps the tool dependency-free.
//
// Rule stats-atomic: inside the engine packages (domore, speccross) the
// Stats fields that engine threads count — Stalls, RangeStalls, LaneWaits
// and the checker's pre-filter counters, per the audited concurrency
// contract on domore.Stats — are written only by the quiesce-time fold of
// the per-thread counters (a function named fold, run by the control
// goroutine with every thread parked). Any other write inside an engine,
// plain (`stats.Stalls++`) or atomic (`atomic.AddInt64(&stats.Stalls, 1)`),
// is a thread writing a Stats the contract says no thread writes: plain it
// is a data race the race detector only catches when a schedule happens to
// expose it, atomic it is a shared cache line the per-thread counters
// exist to avoid. This pass catches both on every build.
//
// Rule trace-nil-guard: every exported pointer-receiver method on
// trace.Recorder and trace.ThreadTrace must contain the nil-receiver
// guard idiom (`if r == nil`, `return t != nil`, …). A nil recorder is
// the documented "tracing disabled" state passed through every engine, so
// an unguarded method is a latent panic on the untraced path.
//
// Rule one-wait: in the packages whose threads wait on each other (engine,
// queue, domore, speccross) only the wait primitive's file, engine's
// wait.go, calls runtime.Gosched. Every other wait loop tests its own exit
// condition and calls engine.Runtime.Pause, so the wait schedule, the stop
// word and any parking are decided in one place; a Gosched anywhere else is
// a wait that bypasses them.
//
// Rule frozen-surface: the repository benchmark, a module of its own that
// no change may edit, calls some entry points that are now forwarders to
// the code that replaced them: domore.RunSharded (domore.Run), the
// core.Compiled run methods RunBarriers, RunBarriersTraced,
// RunDOMOREPlanned, RunDOMOREShardedPlanned, RunSpecCrossProfiled and
// RunAdaptive (core.Compiled.Run), and the engine constant
// adaptive.EngineDomoreSharded, which nothing chooses. They stay for the
// benchmark alone, so any other use in this module — a call, a method or
// function value, a reference — is reported, whatever name the file imports
// the package under. A method is matched by name on any value, but not on
// an imported package: speccross.RunBarriers is an engine, not the method.
// Tests are exempt, as from every rule.
package lint

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Diagnostic is one finding.
type Diagnostic struct {
	Pos  token.Position
	Rule string
	Msg  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Rule, d.Msg)
}

// auditedStatsFields lists the Stats fields engine threads count while an
// engine runs (the audited contract on domore.Stats: every other field is
// counted by the control goroutine alone and may use plain increments).
var auditedStatsFields = map[string]bool{
	"Stalls":          true,
	"RangeStalls":     true,
	"PrefilterChecks": true,
	"PrefilterHits":   true,
}

// enginePackages scopes the stats-atomic rule: only inside the engines do
// worker goroutines count into Stats fields. Post-join aggregation
// elsewhere (adaptive's window merge) is legitimately plain.
var enginePackages = map[string]bool{
	"domore":    true,
	"speccross": true,
}

// waitPackages scopes the one-wait rule, and waitFile names the one file in
// package engine where a wait may yield the processor.
var waitPackages = map[string]bool{
	"engine":    true,
	"queue":     true,
	"domore":    true,
	"speccross": true,
}

const waitFile = "wait.go"

// guardedTypes scopes the nil-guard rule to the trace package's
// nil-tolerant handles.
var guardedTypes = map[string]bool{
	"Recorder":    true,
	"ThreadTrace": true,
}

// CheckFile runs every rule over one parsed file. pkg is the package name
// the file belongs to (used for rule scoping).
func CheckFile(fset *token.FileSet, pkg string, f *ast.File) []Diagnostic {
	var out []Diagnostic
	if enginePackages[pkg] {
		out = append(out, checkStatsAtomic(fset, f)...)
	}
	if pkg == "trace" {
		out = append(out, checkNilGuards(fset, f)...)
	}
	if waitPackages[pkg] && !(pkg == "engine" && filepath.Base(fset.Position(f.Pos()).Filename) == waitFile) {
		out = append(out, checkOneWait(fset, f)...)
	}
	out = append(out, checkFrozenSurface(fset, pkg, f)...)
	return out
}

// frozen lists the forwarders kept for the benchmark: the name, and the
// import path suffix and package name it is declared in. A method's path is
// empty: it is matched by name on any value that is not an imported package.
var frozen = []struct{ path, pkg, name string }{
	{"/runtime/domore", "domore", "RunSharded"},
	{"", "core", "RunBarriers"},
	{"", "core", "RunBarriersTraced"},
	{"", "core", "RunDOMOREPlanned"},
	{"", "core", "RunDOMOREShardedPlanned"},
	{"", "core", "RunSpecCrossProfiled"},
	{"", "core", "RunAdaptive"},
	{"/runtime/adaptive", "adaptive", "EngineDomoreSharded"},
}

// checkFrozenSurface flags every use of a frozen forwarder in f: through a
// selector on the declaring package's import (or, for a method, on any value
// but an imported package), or by bare name inside the declaring package,
// where only the declaration itself is not a use.
func checkFrozenSurface(fset *token.FileSet, pkg string, f *ast.File) []Diagnostic {
	imported := map[string]string{} // local import name → frozen name
	packages := map[string]bool{}   // every local import name
	for _, imp := range f.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		if imp.Name != nil {
			packages[imp.Name.Name] = true
		} else {
			packages[path[strings.LastIndex(path, "/")+1:]] = true
		}
		for _, fr := range frozen {
			if fr.path != "" && strings.HasSuffix(path, fr.path) {
				local := fr.pkg
				if imp.Name != nil {
					local = imp.Name.Name
				}
				imported[local] = fr.name
			}
		}
	}
	skip := map[*ast.Ident]bool{} // declarations, and selectors' right-hand sides
	ast.Inspect(f, func(n ast.Node) bool {
		switch d := n.(type) {
		case *ast.FuncDecl:
			skip[d.Name] = true
		case *ast.ValueSpec:
			for _, id := range d.Names {
				skip[id] = true
			}
		case *ast.SelectorExpr:
			skip[d.Sel] = true
		}
		return true
	})
	var out []Diagnostic
	flag := func(pos token.Pos, name string) {
		out = append(out, Diagnostic{
			Pos:  fset.Position(pos),
			Rule: "frozen-surface",
			Msg:  fmt.Sprintf("use of %s, which exists only for the benchmark module; use what it forwards to", name),
		})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.SelectorExpr:
			for _, fr := range frozen {
				if e.Sel.Name != fr.name {
					continue
				}
				x, ok := e.X.(*ast.Ident)
				onImport := ok && packages[x.Name]
				if fr.path == "" && !onImport || fr.path != "" && onImport && imported[x.Name] == fr.name {
					flag(e.Pos(), fr.pkg+"."+fr.name)
				}
			}
		case *ast.Ident:
			for _, fr := range frozen {
				if !skip[e] && pkg == fr.pkg && e.Name == fr.name {
					flag(e.Pos(), fr.pkg+"."+fr.name)
				}
			}
		}
		return true
	})
	return out
}

// checkOneWait flags every runtime.Gosched call in f, under whatever name
// the file imports package runtime.
func checkOneWait(fset *token.FileSet, f *ast.File) []Diagnostic {
	rt := ""
	for _, imp := range f.Imports {
		if imp.Path.Value == `"runtime"` {
			rt = "runtime"
			if imp.Name != nil {
				rt = imp.Name.Name
			}
		}
	}
	if rt == "" {
		return nil
	}
	var out []Diagnostic
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := call.Fun.(*ast.SelectorExpr); ok && isIdent(fn.X, rt) && fn.Sel.Name == "Gosched" {
			out = append(out, Diagnostic{
				Pos:  fset.Position(call.Pos()),
				Rule: "one-wait",
				Msg:  "runtime.Gosched outside engine/wait.go; wait through engine.Runtime.Pause",
			})
		}
		return true
	})
	return out
}

// checkStatsAtomic flags writes to the audited Stats fields outside a fold
// function. Reads (atomic loads included) and composite literals are fine;
// assignment statements, ++/-- and the other sync/atomic calls taking the
// field's address are not.
func checkStatsAtomic(fset *token.FileSet, f *ast.File) []Diagnostic {
	var out []Diagnostic
	flag := func(pos token.Pos, field, how string) {
		out = append(out, Diagnostic{
			Pos:  fset.Position(pos),
			Rule: "stats-atomic",
			Msg: fmt.Sprintf("%s of audited Stats field %s outside fold; count it per thread and fold it in at quiesce",
				how, field),
		})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.FuncDecl:
			// The fold runs at quiesce: its plain writes are the contract.
			return st.Name.Name != "fold"
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				if name, ok := auditedSelector(lhs); ok {
					flag(lhs.Pos(), name, "assignment")
				}
			}
		case *ast.IncDecStmt:
			if name, ok := auditedSelector(st.X); ok {
				flag(st.X.Pos(), name, "increment")
			}
		case *ast.CallExpr:
			fn, ok := st.Fun.(*ast.SelectorExpr)
			if !ok || !isIdent(fn.X, "atomic") || strings.HasPrefix(fn.Sel.Name, "Load") {
				break
			}
			for _, arg := range st.Args {
				if addr, ok := arg.(*ast.UnaryExpr); ok && addr.Op == token.AND {
					if name, ok := auditedSelector(addr.X); ok {
						flag(addr.X.Pos(), name, "atomic."+fn.Sel.Name)
					}
				}
			}
		}
		return true
	})
	return out
}

func auditedSelector(e ast.Expr) (string, bool) {
	sel, ok := e.(*ast.SelectorExpr)
	if !ok || !auditedStatsFields[sel.Sel.Name] {
		return "", false
	}
	return sel.Sel.Name, true
}

// checkNilGuards flags exported pointer-receiver methods on the guarded
// trace types whose body never compares the receiver against nil.
func checkNilGuards(fset *token.FileSet, f *ast.File) []Diagnostic {
	var out []Diagnostic
	for _, decl := range f.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
			continue
		}
		recvName, typeName, ok := pointerReceiver(fd)
		if !ok || !guardedTypes[typeName] {
			continue
		}
		if !comparesReceiverToNil(fd.Body, recvName) {
			out = append(out, Diagnostic{
				Pos:  fset.Position(fd.Pos()),
				Rule: "trace-nil-guard",
				Msg: fmt.Sprintf("method (*%s).%s has no nil-receiver guard; a nil %s means tracing is disabled and must be a no-op",
					typeName, fd.Name.Name, typeName),
			})
		}
	}
	return out
}

// pointerReceiver extracts the receiver ident and pointed-to type name of
// a `func (r *T) M(…)` declaration.
func pointerReceiver(fd *ast.FuncDecl) (recv, typ string, ok bool) {
	if len(fd.Recv.List) != 1 {
		return "", "", false
	}
	field := fd.Recv.List[0]
	star, ok := field.Type.(*ast.StarExpr)
	if !ok {
		return "", "", false
	}
	ident, ok := star.X.(*ast.Ident)
	if !ok {
		return "", "", false
	}
	if len(field.Names) != 1 {
		return "", "", false // unnamed receiver can't be guarded
	}
	return field.Names[0].Name, ident.Name, true
}

// comparesReceiverToNil reports whether the body contains `recv == nil`
// or `recv != nil` (in either operand order) — the guard idiom in any of
// its shapes: early return, body wrap, or `return recv != nil`.
func comparesReceiverToNil(body *ast.BlockStmt, recv string) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		be, ok := n.(*ast.BinaryExpr)
		if !ok || (be.Op != token.EQL && be.Op != token.NEQ) {
			return true
		}
		if isIdent(be.X, recv) && isNil(be.Y) || isIdent(be.Y, recv) && isNil(be.X) {
			found = true
			return false
		}
		return true
	})
	return found
}

func isIdent(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func isNil(e ast.Expr) bool { return isIdent(e, "nil") }

// CheckFiles parses and checks the named Go source files as one package
// unit. Unparseable files are reported as diagnostics rather than errors:
// the build proper will fail on them with a better message, the linter
// just must not crash.
func CheckFiles(files []string) []Diagnostic {
	fset := token.NewFileSet()
	var out []Diagnostic
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue // tests may build Stats fixtures with plain writes
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			out = append(out, Diagnostic{
				Pos: token.Position{Filename: path}, Rule: "parse", Msg: err.Error(),
			})
			continue
		}
		out = append(out, CheckFile(fset, f.Name.Name, f)...)
	}
	sortDiags(out)
	return out
}

// CheckDir walks root recursively and checks every non-test Go file of
// root's module: directories holding a go.mod of their own are other
// modules, and are skipped.
func CheckDir(root string) ([]Diagnostic, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == root {
				return nil
			}
			if name := d.Name(); strings.HasPrefix(name, ".") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return CheckFiles(files), nil
}

func sortDiags(ds []Diagnostic) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Pos, ds[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}
