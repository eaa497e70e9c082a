package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// SnapshotSafety enforces the engine's epoch-publication protocol at the
// type level. The protocol (engine.apply / engine.process) guarantees that a
// reader never observes a half-written table; that guarantee holds only if
//
//   - fields of the epoch-published snapshot structs are assigned solely
//     inside the designated construction/publish functions, and
//   - inside those functions, once a snapshot value has been handed to a
//     publish pointer's Store (PublishFields, e.g. active), no field of that
//     same object is written afterwards. The check is object-sensitive:
//     applyShard's post-Store replay legitimately mutates the *retired*
//     snapshot, which was never the Store argument — only writes through the
//     published value are ordered after the reader may observe it, and
//   - the atomic publish pointers (active, inUse) are Stored only by the
//     designated side of the protocol (writer swap vs. reader pin), and
//   - sync primitives (mutexes, wait groups, atomics) are never copied by
//     value, which would silently fork their state.
var SnapshotSafety = &Analyzer{
	Name: "snapshotsafety",
	Doc:  "snapshot state mutates only before the epoch publish; no locks copied by value",
	Run:  runSnapshotSafety,
}

// atomic store-like methods: calling any of these writes the pointer.
var storeMethods = map[string]bool{"Store": true, "Swap": true, "CompareAndSwap": true}

func runSnapshotSafety(u *Unit) error {
	cfg := u.Config.Snapshot
	if cfg.Pkg == "" {
		return nil
	}
	for _, pkg := range u.Pkgs {
		if !pathMatchesAny(pkg.Path, []string{cfg.Pkg}) {
			continue
		}
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				checkLockCopies(u, pkg, fd)
				if fd.Body != nil {
					checkSnapshotWrites(u, pkg, fd, cfg)
				}
			}
		}
	}
	return nil
}

// --- snapshot-field and publish-pointer discipline ---

func checkSnapshotWrites(u *Unit, pkg *Package, fd *ast.FuncDecl, cfg SnapshotConfig) {
	// First pass: publish-pointer stores, and where each snapshot object was
	// published.
	published := map[types.Object]token.Pos{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			checkPublishStore(u, pkg, fd.Name.Name, call, cfg, published)
		}
		return true
	})
	// Second pass: snapshot field writes.
	allowed := nameInList(fd.Name.Name, cfg.AllowFuncs)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				checkSnapshotFieldTarget(u, pkg, l, cfg, allowed, published)
			}
		case *ast.IncDecStmt:
			checkSnapshotFieldTarget(u, pkg, n.X, cfg, allowed, published)
		}
		return true
	})
}

// checkSnapshotFieldTarget flags sel-expression assignment targets whose
// receiver is one of the epoch-published snapshot types: anywhere outside
// AllowFuncs, and inside them through an object after its publish.
func checkSnapshotFieldTarget(u *Unit, pkg *Package, target ast.Expr, cfg SnapshotConfig, allowed bool, published map[types.Object]token.Pos) {
	sel, ok := unparen(target).(*ast.SelectorExpr)
	if !ok {
		return
	}
	named := namedOf(pkg.Info.TypeOf(sel.X))
	if named == nil || named.Obj().Pkg() != pkg.Types || !nameInList(named.Obj().Name(), cfg.Types) {
		return
	}
	if !allowed {
		u.Reportf(target.Pos(), "assignment to %s.%s outside the publish/swap functions (%v): snapshot state written outside the publish protocol races the pinned reader",
			named.Obj().Name(), sel.Sel.Name, cfg.AllowFuncs)
		return
	}
	base := baseIdent(sel.X)
	if base == nil {
		return
	}
	if at, ok := published[refObject(pkg.Info, base)]; ok && target.Pos() > at {
		u.Reportf(target.Pos(), "snapshot field %s written through %s after its epoch publish (the reader may already be executing it)",
			sel.Sel.Name, base.Name)
	}
}

// checkPublishStore flags x.<field>.Store(...) (and Swap/CompareAndSwap)
// where <field> is a configured publish pointer and the enclosing function is
// not on that field's allow list. A Store on one of PublishFields records
// its argument's first publish position in published.
func checkPublishStore(u *Unit, pkg *Package, fname string, call *ast.CallExpr, cfg SnapshotConfig, published map[types.Object]token.Pos) {
	method, ok := unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !storeMethods[method.Sel.Name] {
		return
	}
	field, ok := unparen(method.X).(*ast.SelectorExpr)
	if !ok {
		return
	}
	v, ok := pkg.Info.Uses[field.Sel].(*types.Var)
	if !ok || !v.IsField() || v.Pkg() != pkg.Types {
		return
	}
	if method.Sel.Name == "Store" && len(call.Args) == 1 && nameInList(field.Sel.Name, cfg.PublishFields) {
		if obj := refObject(pkg.Info, call.Args[0]); obj != nil {
			if _, seen := published[obj]; !seen {
				published[obj] = call.Pos()
			}
		}
	}
	allowed, configured := cfg.StoreFields[field.Sel.Name]
	if !configured || nameInList(fname, allowed) {
		return
	}
	u.Reportf(call.Pos(), "%s on publish pointer %q outside its protocol functions (%v): epoch publication has exactly one writer side",
		method.Sel.Name, field.Sel.Name, allowed)
}

func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	return n
}

// --- lock-by-value detection ---

func checkLockCopies(u *Unit, pkg *Package, fd *ast.FuncDecl) {
	// Signature: receivers, params, and results must not carry sync state by
	// value.
	for _, fl := range fieldLists(fd) {
		if fl == nil {
			continue
		}
		for _, f := range fl.List {
			if t := pkg.Info.TypeOf(f.Type); t != nil {
				if name := lockIn(t, nil); name != "" {
					u.Reportf(f.Type.Pos(), "passes %s (contains %s) by value: copying forks its state", t, name)
				}
			}
		}
	}
	if fd.Body == nil {
		return
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, r := range n.Rhs {
				checkLockValueRead(u, pkg, r)
			}
		case *ast.CallExpr:
			for _, a := range n.Args {
				checkLockValueRead(u, pkg, a)
			}
		case *ast.RangeStmt:
			if n.Value != nil {
				if t := pkg.Info.TypeOf(n.Value); t != nil {
					if name := lockIn(t, nil); name != "" {
						u.Reportf(n.Value.Pos(), "range copies %s (contains %s) by value", t, name)
					}
				}
			}
		case *ast.ReturnStmt:
			for _, r := range n.Results {
				checkLockValueRead(u, pkg, r)
			}
		}
		return true
	})
}

func fieldLists(fd *ast.FuncDecl) []*ast.FieldList {
	return []*ast.FieldList{fd.Recv, fd.Type.Params, fd.Type.Results}
}

// checkLockValueRead flags expressions that read an existing lock-containing
// value (copying it). Composite literals and conversions construct fresh
// zero-state values and are allowed.
func checkLockValueRead(u *Unit, pkg *Package, e ast.Expr) {
	switch unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	t := pkg.Info.TypeOf(e)
	if t == nil {
		return
	}
	if _, isPtr := t.Underlying().(*types.Pointer); isPtr {
		return
	}
	if name := lockIn(t, nil); name != "" {
		u.Reportf(e.Pos(), "copies %s (contains %s) by value: copying forks its state", t, name)
	}
}

// lockIn returns the name of a sync primitive contained (by value) in t, or
// "".
func lockIn(t types.Type, seen map[types.Type]bool) string {
	if t == nil {
		return ""
	}
	if seen == nil {
		seen = map[types.Type]bool{}
	}
	if seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		obj := named.Obj()
		if p := obj.Pkg(); p != nil {
			switch p.Path() {
			case "sync":
				switch obj.Name() {
				case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Map", "Pool":
					return "sync." + obj.Name()
				}
			case "sync/atomic":
				switch obj.Name() {
				case "Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer", "Value":
					return "atomic." + obj.Name()
				}
			}
		}
		return lockIn(named.Underlying(), seen)
	}
	switch t := t.(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if name := lockIn(t.Field(i).Type(), seen); name != "" {
				return name
			}
		}
	case *types.Array:
		return lockIn(t.Elem(), seen)
	}
	return ""
}
