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
	// LaneWaits is written by every scheduler lane of the sharded DOMORE
	// scheduler while the driver runs; like Stalls it crosses goroutines.
	"LaneWaits": true,
}

// enginePackages scopes the stats-atomic rule: only inside the engines do
// worker goroutines count into Stats fields. Post-join aggregation
// elsewhere (adaptive's window merge, the simulator) is legitimately
// plain.
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

// CheckDir walks root recursively and checks every non-test Go file.
func CheckDir(root string) ([]Diagnostic, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); name != root && (strings.HasPrefix(name, ".") || name == "testdata") {
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
