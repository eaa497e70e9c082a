// Package lint implements thanoslint, a domain-specific static-analysis
// suite that mechanically enforces this repository's hardware invariants.
// The paper's guarantees are invariants, not behaviors — UFPUs take exactly
// 2 cycles and BFPUs 1 (§5.2), SMBM writes are 2-cycle fully-pipelined ops
// (§5.1), and the switch decides one packet per clock — and the software
// rendering of those guarantees ("zero allocations and no wall-clock or
// global-rand nondeterminism on the decision path", "snapshot state is only
// mutated before its epoch publish") is enforced at build time by five
// analyzers:
//
//   - hotpathalloc:    no allocating constructs on //thanos:hotpath call graphs
//   - determinism:     no wall clock, global math/rand, or map-iteration-order
//     leaks in the simulation/datapath packages
//   - latencycontract: declared latency constants match the paper's table
//     (internal/lint/contract.go is the single source of truth)
//   - snapshotsafety:  engine snapshot state mutates only inside the publish
//     protocol and never through a snapshot after its atomic Store publish;
//     sync primitives are never copied by value
//   - telemetrysafety: telemetry reachable from //thanos:hotpath roots is
//     lock-free and restricted to the hot-safe instrument API
//
// Three more analyzers add a call-graph layer (callgraph.go: static
// resolution plus CHA for interface dispatch) and check the serving stack's
// concurrency and protocol contracts:
//
//   - goroutineleak:   every spawned goroutine has a shutdown edge (closed
//     channel, WaitGroup join, context cancel) reachable from Close
//   - lockorder:       no lock-ordering cycles; no blocking channel ops or
//     mixed-use I/O while a lock is held
//   - wireproto:       opcode/codec/dispatch exhaustiveness and cap symmetry
//     across the server and client ends of the wire protocol
//
// The suite is built directly on go/ast and go/types (no external analysis
// framework) so it runs offline with nothing but the Go toolchain; the
// driver is cmd/thanoslint and the test harness mirrors analysistest's
// "// want" expectation comments.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Annotation markers recognized in function doc comments. Each marker is a
// comment line of the form "//thanos:<name> [justification]".
const (
	// MarkHotPath marks a function as part of the per-packet decision path:
	// it and everything it statically calls within the module must be free
	// of allocating constructs (checked by hotpathalloc).
	MarkHotPath = "thanos:hotpath"
	// MarkColdPath marks a reviewed slow-path helper reachable from a hot
	// path whose steady-state cost is amortized to zero (e.g. a buffer-grow
	// function). hotpathalloc stops traversal at it; the dynamic
	// allocs-per-run regression tests cross-check the amortization claim.
	MarkColdPath = "thanos:coldpath"
	// MarkWallClock exempts a measurement-harness function from the
	// determinism analyzer's wall-clock rule. A justification is mandatory.
	MarkWallClock = "thanos:wallclock"
)

// Diagnostic is one analyzer finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
}

// Analyzer is one named check over a Unit.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(u *Unit) error
}

// All is the full thanoslint suite in reporting order.
var All = []*Analyzer{HotPathAlloc, Determinism, LatencyContract, SnapshotSafety, TelemetrySafety, GoroutineLeak, LockOrder, WireProto}

// V2 is the serving-stack subset (the `make check-lint2` fast-iteration
// target): the three call-graph analyzers plus snapshotsafety's epoch
// publish protocol.
var V2 = []*Analyzer{GoroutineLeak, LockOrder, SnapshotSafety, WireProto}

// Unit is the analysis scope handed to every analyzer: the loaded packages
// plus configuration. Analyzers report through Reportf.
type Unit struct {
	Fset   *token.FileSet
	Pkgs   []*Package
	Config Config

	current string // name of the running analyzer
	diags   []Diagnostic
}

// NewUnit builds an analysis unit over the given packages.
func NewUnit(fset *token.FileSet, pkgs []*Package, cfg Config) *Unit {
	return &Unit{Fset: fset, Pkgs: pkgs, Config: cfg}
}

// Reportf records a finding at pos for the running analyzer.
func (u *Unit) Reportf(pos token.Pos, format string, args ...any) {
	u.diags = append(u.diags, Diagnostic{
		Pos:      u.Fset.Position(pos),
		Analyzer: u.current,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Run executes the analyzers over the unit and returns all findings sorted
// by position.
func Run(u *Unit, analyzers []*Analyzer) ([]Diagnostic, error) {
	for _, a := range analyzers {
		u.current = a.Name
		if err := a.Run(u); err != nil {
			return nil, fmt.Errorf("lint: %s: %w", a.Name, err)
		}
	}
	sort.Slice(u.diags, func(i, j int) bool {
		a, b := u.diags[i], u.diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return u.diags, nil
}

// Config parameterizes the analyzers. DefaultConfig (contract.go) encodes
// this repository's real invariants; tests substitute fixture packages.
type Config struct {
	// DeterminismPkgs are import-path prefixes where the determinism rules
	// apply to non-test code.
	DeterminismPkgs []string
	// Contract is the latency source-of-truth table.
	Contract []LatencyConst
	// Snapshot configures the snapshotsafety analyzer.
	Snapshot SnapshotConfig
	// Telemetry configures the telemetrysafety analyzer.
	Telemetry TelemetryConfig
	// Goroutine configures the goroutineleak analyzer.
	Goroutine GoroutineConfig
	// Locks configures the lockorder analyzer.
	Locks LockConfig
	// Wire configures the wireproto analyzer.
	Wire WireConfig
}

// SnapshotConfig scopes the snapshotsafety analyzer.
type SnapshotConfig struct {
	// Pkg is the import path (prefix) of the package holding the
	// epoch-published snapshot machinery.
	Pkg string
	// Types names the snapshot struct types whose fields may only be
	// assigned inside AllowFuncs.
	Types []string
	// AllowFuncs are the publish/swap/construction functions permitted to
	// assign snapshot fields (matched by declared function name).
	AllowFuncs []string
	// StoreFields maps an atomic publish-pointer field name (e.g. "active")
	// to the functions allowed to call .Store on it.
	StoreFields map[string][]string
	// PublishFields are the publish-pointer field names whose Store is the
	// epoch publish (e.g. "active"): no field of the stored object may be
	// written after it. Stores to other atomics (the reader's inUse pin)
	// are not publishes.
	PublishFields []string
}

// LatencyConst is one row of the latency contract: package Pkg must declare
// an integer constant Name with value Cycles, citing Cite in the paper.
type LatencyConst struct {
	Pkg    string
	Name   string
	Cycles int64
	Cite   string
}

// hasMark reports whether the doc comment carries the marker, and returns
// any justification text following it.
func hasMark(doc *ast.CommentGroup, mark string) (bool, string) {
	if doc == nil {
		return false, ""
	}
	for _, c := range doc.List {
		line := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(line, mark); ok {
			if rest == "" || strings.HasPrefix(rest, " ") || strings.HasPrefix(rest, "\t") {
				return true, strings.TrimSpace(rest)
			}
		}
	}
	return false, ""
}

// pathMatchesAny reports whether the import path equals, or is a
// subdirectory of, any of the given prefixes.
func pathMatchesAny(path string, prefixes []string) bool {
	for _, p := range prefixes {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// nameInList reports whether name is one of list.
func nameInList(name string, list []string) bool {
	for _, n := range list {
		if n == name {
			return true
		}
	}
	return false
}

// funcDeclName returns a display name for a function declaration, including
// the receiver type for methods (e.g. "(*Engine).DecideBatch").
func funcDeclName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	return "(" + typeExprString(fd.Recv.List[0].Type) + ")." + fd.Name.Name
}

func typeExprString(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.StarExpr:
		return "*" + typeExprString(t.X)
	case *ast.IndexExpr:
		return typeExprString(t.X)
	case *ast.IndexListExpr:
		return typeExprString(t.X)
	}
	return "?"
}

// unparen strips parentheses from an expression.
func unparen(e ast.Expr) ast.Expr {
	for {
		p, ok := e.(*ast.ParenExpr)
		if !ok {
			return e
		}
		e = p.X
	}
}

// baseIdent chases a chain of selector/index/star/slice expressions to the
// identifier at its base, or nil (e.g. for a call result).
func baseIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := unparen(e).(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// isPkgCall reports whether call is pkgpath.Name(...) for a package-level
// function, using type information to see through import renames.
func isPkgCall(info *types.Info, call *ast.CallExpr, pkgPath string, names ...string) (string, bool) {
	sel, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	obj := info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pkgPath {
		return "", false
	}
	if len(names) == 0 {
		return sel.Sel.Name, true
	}
	for _, n := range names {
		if sel.Sel.Name == n {
			return n, true
		}
	}
	return "", false
}
