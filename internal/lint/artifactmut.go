package lint

// ArtifactMut enforces the core contract of the incremental-compilation
// story: once a pass artifact is published (into the plan DAG, the in-memory
// cache, or the persistent node store), nothing downstream may write through
// it. A cache hit hands out the same object to every consumer; one aliased
// write poisons every later hit.
//
// The analyzer computes, for every function in the module, a summary of the
// parameters it may write *through* (a write that crosses a pointer, slice,
// or map — a plain field write on a by-value parameter mutates only the
// callee's copy and is fine). Summaries propagate up the callgraph: a
// function that passes its own parameter into a writing parameter of a callee
// writes through that parameter too. Then every function reachable from the
// artifact-publishing roots (pass.Plan.Run, RunGrid/RunGridOutcomes, and the
// store payload parsers) is checked: a write through a value whose
// access path passes through an artifact type — received as a parameter,
// receiver, or call result — is reported at the mutation site, with the call
// path that reaches it named in the message.
//
// Construction is exempt by design: writes whose access path roots at a
// composite literal or make() in the same function build a fresh artifact
// that nobody shares yet.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

var ArtifactMut = &Analyzer{
	Name: "artifactmut",
	Doc:  "no function reachable from plan execution or store decode may mutate a published artifact",
	Packages: []string{
		"internal/pass", "internal/nodestore", "internal/service",
	},
	RunModule: runArtifactMut,
}

// artifactTypeSpecs names the artifact types by (package-path suffix, type
// name); resolution against the loaded module keeps the analyzer independent
// of the module's import-path prefix, so fixtures exercise the same matching.
var artifactTypeSpecs = []struct{ pkg, name string }{
	{"internal/pass", "Repetitions"},
	{"internal/pass", "Order"},
	{"internal/pass", "LoopedSchedule"},
	{"internal/pass", "Lifetimes"},
	{"internal/pass", "Allocation"},
	{"internal/service", "Artifact"},
}

// artifactRootSpecs names the functions artifacts flow out of: the plan
// executor (its node outputs are shared by every grid point and the service
// cache) and the store payload parsers (the in-memory tier hands one parse
// to every plan that recalls it).
var artifactRootSpecs = []struct{ pkg, recv, name string }{
	{"internal/pass", "Plan", "Run"},
	{"internal/pass", "", "RunGrid"},
	{"internal/pass", "", "RunGridOutcomes"},
	{"internal/pass", "", "parseOrder"},
	{"internal/pass", "", "parseSched"},
	{"internal/pass", "", "parseLife"},
	{"internal/pass", "", "parseAlloc"},
}

const (
	amRecvParam = -1 // receiver, as a parameter index
	amNoParam   = -2 // inbound but not parameter-rooted (artifact call result)
)

// amTaint records where a local binding's value came from.
type amTaint struct {
	param    int        // amRecvParam, a parameter index, or amNoParam
	inbound  bool       // derived from a parameter, receiver, or artifact-typed call result
	artifact types.Type // artifact type on the access path, if any
}

// amWrite is one assignment through a selector/index chain.
type amWrite struct {
	pos     token.Pos
	expr    string // rendered write target, for diagnostics
	taint   amTaint
	crossed bool // the access path crosses a pointer, slice, or map
}

// amArg is one call argument whose value is worth tracking.
type amArg struct {
	param    int // caller parameter the argument roots at, or amNoParam
	inbound  bool
	artifact types.Type
}

// amCall is one statically resolved call with tracked arguments, keyed by the
// callee's parameter index (amRecvParam for the receiver).
type amCall struct {
	pos    token.Pos
	callee *types.Func
	args   map[int]amArg
}

// amFacts is the per-function analysis result.
type amFacts struct {
	fn     *types.Func
	writes []amWrite
	calls  []amCall
}

// amSite is where a (possibly transitive) write through a parameter lands.
type amSite struct {
	pos   token.Pos
	expr  string
	chain []*types.Func // functions from the summarized one down to the writer
}

type amAnalysis struct {
	pass      *ModulePass
	artifacts map[*types.Named]bool
	facts     map[*types.Func]*amFacts
	// summary[fn][i] is a representative mutation site for "fn writes
	// through parameter i" (i == amRecvParam for the receiver).
	summary map[*types.Func]map[int]amSite
}

func runArtifactMut(pass *ModulePass) {
	a := &amAnalysis{
		pass:      pass,
		artifacts: make(map[*types.Named]bool),
		facts:     make(map[*types.Func]*amFacts),
		summary:   make(map[*types.Func]map[int]amSite),
	}
	for _, spec := range artifactTypeSpecs {
		for _, pkg := range pass.Module.Packages {
			if !pathHasSuffix(pkg.Path, spec.pkg) {
				continue
			}
			if obj, ok := pkg.Types.Scope().Lookup(spec.name).(*types.TypeName); ok {
				if n, ok := obj.Type().(*types.Named); ok {
					a.artifacts[n] = true
				}
			}
		}
	}
	var roots []*types.Func
	for _, spec := range artifactRootSpecs {
		if fn := pass.Module.LookupFunc(spec.pkg, spec.recv, spec.name); fn != nil {
			roots = append(roots, fn)
		}
	}
	if len(a.artifacts) == 0 || len(roots) == 0 {
		return
	}

	for _, fn := range pass.Module.Functions() {
		a.facts[fn] = a.analyzeFunc(fn)
	}
	a.buildSummaries()
	a.report(pass.Module.Reachable(roots))
}

// artifactOf returns the artifact named type behind t (through one pointer),
// or nil.
func (a *amAnalysis) artifactOf(t types.Type) types.Type {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok && a.artifacts[n] {
		return n
	}
	return nil
}

// analyzeFunc walks one declared function (nested literals included — their
// effects belong to the enclosing function) and collects its writes and
// statically resolved calls.
func (a *amAnalysis) analyzeFunc(fn *types.Func) *amFacts {
	fd := a.pass.Module.Decl(fn)
	facts := &amFacts{fn: fn}
	pkg := fd.Pkg
	taint := make(map[types.Object]amTaint)
	sig := fn.Type().(*types.Signature)
	if r := sig.Recv(); r != nil {
		taint[r] = amTaint{param: amRecvParam, inbound: true, artifact: a.artifactOf(r.Type())}
	}
	for i := 0; i < sig.Params().Len(); i++ {
		p := sig.Params().At(i)
		taint[p] = amTaint{param: i, inbound: true, artifact: a.artifactOf(p.Type())}
	}

	// Two passes over the bindings so a taint introduced late still reaches
	// an alias bound earlier in an inner scope; writes are collected on the
	// second pass only.
	for round := 0; round < 2; round++ {
		collect := round == 1
		ast.Inspect(fd.Decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				a.bindAssign(pkg, taint, n)
				if collect {
					for _, lhs := range n.Lhs {
						if w, ok := a.writeTarget(pkg, taint, lhs); ok {
							facts.writes = append(facts.writes, w)
						}
					}
				}
			case *ast.IncDecStmt:
				if collect {
					if w, ok := a.writeTarget(pkg, taint, n.X); ok {
						facts.writes = append(facts.writes, w)
					}
				}
			case *ast.RangeStmt:
				a.bindRange(pkg, taint, n)
			case *ast.CallExpr:
				if collect {
					a.collectCall(pkg, taint, facts, n)
				}
			}
			return true
		})
	}
	sort.Slice(facts.writes, func(i, j int) bool { return facts.writes[i].pos < facts.writes[j].pos })
	sort.Slice(facts.calls, func(i, j int) bool { return facts.calls[i].pos < facts.calls[j].pos })
	return facts
}

// bindAssign propagates taint through := and = bindings of plain identifiers.
func (a *amAnalysis) bindAssign(pkg *Package, taint map[types.Object]amTaint, as *ast.AssignStmt) {
	if len(as.Lhs) == len(as.Rhs) {
		for i, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pkg.Info.Defs[id]
			if obj == nil {
				obj = pkg.Info.Uses[id]
			}
			if obj == nil {
				continue
			}
			if t, ok := a.exprTaint(pkg, taint, as.Rhs[i]); ok {
				taint[obj] = t
			}
		}
		return
	}
	// Multi-value form: x, err := f(...). Taint each binding whose
	// corresponding result type is an artifact.
	if len(as.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	tv, ok := pkg.Info.Types[call]
	if !ok {
		return
	}
	tup, ok := tv.Type.(*types.Tuple)
	if !ok || tup.Len() != len(as.Lhs) {
		return
	}
	for i, lhs := range as.Lhs {
		id, ok := lhs.(*ast.Ident)
		if !ok {
			continue
		}
		obj := pkg.Info.Defs[id]
		if obj == nil {
			obj = pkg.Info.Uses[id]
		}
		art := a.artifactOf(tup.At(i).Type())
		if obj != nil && art != nil {
			taint[obj] = amTaint{param: amNoParam, inbound: true, artifact: art}
		}
	}
}

// bindRange taints the value (and key) bindings of a range over a tainted
// collection: their elements alias the collection's backing store.
func (a *amAnalysis) bindRange(pkg *Package, taint map[types.Object]amTaint, rs *ast.RangeStmt) {
	t, ok := a.exprTaint(pkg, taint, rs.X)
	if !ok || !t.inbound {
		return
	}
	for _, e := range []ast.Expr{rs.Key, rs.Value} {
		if id, ok := e.(*ast.Ident); ok && id.Name != "_" {
			if obj := pkg.Info.Defs[id]; obj != nil {
				taint[obj] = t
			}
		}
	}
}

// exprTaint evaluates the taint of an expression used as a value: a
// selector/index/deref/& chain over a tainted root, or an artifact-typed
// call result.
func (a *amAnalysis) exprTaint(pkg *Package, taint map[types.Object]amTaint, e ast.Expr) (amTaint, bool) {
	e = ast.Unparen(e)
	if call, ok := e.(*ast.CallExpr); ok {
		if art := a.artifactOf(pkg.Info.TypeOf(call)); art != nil {
			return amTaint{param: amNoParam, inbound: true, artifact: art}, true
		}
		return amTaint{}, false
	}
	root, art, ok := a.chainRoot(pkg, e)
	if !ok || root == nil {
		return amTaint{}, false
	}
	rt, ok := taint[root]
	if !ok || !rt.inbound {
		return amTaint{}, false
	}
	if rt.artifact != nil {
		art = rt.artifact
	}
	return amTaint{param: rt.param, inbound: true, artifact: art}, true
}

// chainRoot resolves a selector/index/deref/& chain to its root identifier's
// object and reports any artifact type found along the path (the types of
// every sub-expression, the full expression included).
func (a *amAnalysis) chainRoot(pkg *Package, e ast.Expr) (types.Object, types.Type, bool) {
	e = ast.Unparen(e)
	art := a.artifactOf(pkg.Info.TypeOf(e))
	switch e := e.(type) {
	case *ast.Ident:
		obj := pkg.Info.Uses[e]
		if obj == nil {
			obj = pkg.Info.Defs[e]
		}
		return obj, art, obj != nil
	case *ast.SelectorExpr:
		// Skip qualified identifiers (pkg.Var) and method values.
		if sel, ok := pkg.Info.Selections[e]; !ok || sel.Kind() != types.FieldVal {
			return nil, nil, false
		}
		root, sub, ok := a.chainRoot(pkg, e.X)
		if sub != nil {
			art = sub
		}
		return root, art, ok
	case *ast.IndexExpr:
		root, sub, ok := a.chainRoot(pkg, e.X)
		if sub != nil {
			art = sub
		}
		return root, art, ok
	case *ast.StarExpr:
		root, sub, ok := a.chainRoot(pkg, e.X)
		if sub != nil {
			art = sub
		}
		return root, art, ok
	case *ast.UnaryExpr:
		if e.Op != token.AND {
			return nil, nil, false
		}
		return a.chainRoot(pkg, e.X)
	}
	return nil, nil, false
}

// crosses reports whether accessing one step below a value of type t reaches
// shared memory: through a pointer, slice, or map (array values and plain
// struct fields stay inside the local copy).
func crosses(t types.Type) bool {
	if t == nil {
		return false
	}
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

// writeTarget classifies one assignment target. A plain identifier rebinds a
// variable and is never a write-through; everything else is a chain whose
// final step determines whether the write lands in shared memory.
func (a *amAnalysis) writeTarget(pkg *Package, taint map[types.Object]amTaint, lhs ast.Expr) (amWrite, bool) {
	lhs = ast.Unparen(lhs)
	var base ast.Expr
	crossed := false
	switch l := lhs.(type) {
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[l]; !ok || sel.Kind() != types.FieldVal {
			return amWrite{}, false
		}
		base = l.X
		crossed = crosses(pkg.Info.TypeOf(l.X))
	case *ast.IndexExpr:
		base = l.X
		crossed = crosses(pkg.Info.TypeOf(l.X))
	case *ast.StarExpr:
		base = l.X
		crossed = true
	default:
		return amWrite{}, false
	}
	t, ok := a.exprTaint(pkg, taint, base)
	if !ok {
		// Untainted root (fresh local, package var): still record the write
		// when the chain itself crosses — the inner chain may carry taint
		// through a deeper selector; exprTaint already covers that, so an
		// untainted root is simply not a finding.
		return amWrite{}, false
	}
	if !crossed {
		// The final step stays inside a local copy; but a deeper step of the
		// base chain may itself cross (e.g. p.ptr.field = x has base p.ptr,
		// whose type is a pointer — caught above). Walk the base chain for
		// crossings.
		crossed = a.chainCrosses(pkg, base)
	}
	return amWrite{pos: lhs.Pos(), expr: types.ExprString(lhs), taint: t, crossed: crossed}, true
}

// chainCrosses reports whether any step inside the chain dereferences a
// pointer, slice, or map.
func (a *amAnalysis) chainCrosses(pkg *Package, e ast.Expr) bool {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.SelectorExpr:
		return crosses(pkg.Info.TypeOf(e.X)) || a.chainCrosses(pkg, e.X)
	case *ast.IndexExpr:
		return crosses(pkg.Info.TypeOf(e.X)) || a.chainCrosses(pkg, e.X)
	case *ast.StarExpr:
		return true
	case *ast.UnaryExpr:
		return e.Op == token.AND && a.chainCrosses(pkg, e.X)
	}
	return false
}

// collectCall records one statically resolved call with the taint of each
// argument, keyed by callee parameter index. The builtins delete and copy
// mutate their first argument and are recorded as direct writes instead.
func (a *amAnalysis) collectCall(pkg *Package, taint map[types.Object]amTaint, facts *amFacts, call *ast.CallExpr) {
	var callee *types.Func
	var recvExpr ast.Expr
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if b, ok := pkg.Info.Uses[fun].(*types.Builtin); ok {
			if (b.Name() == "delete" || b.Name() == "copy") && len(call.Args) > 0 {
				if t, ok := a.exprTaint(pkg, taint, call.Args[0]); ok {
					facts.writes = append(facts.writes, amWrite{
						pos: call.Pos(), expr: types.ExprString(call.Args[0]), taint: t, crossed: true,
					})
				}
			}
			return
		}
		callee, _ = pkg.Info.Uses[fun].(*types.Func)
	case *ast.SelectorExpr:
		if sel, ok := pkg.Info.Selections[fun]; ok {
			if fn, ok := sel.Obj().(*types.Func); ok {
				callee = fn
				recvExpr = fun.X
			}
		} else if fn, ok := pkg.Info.Uses[fun.Sel].(*types.Func); ok {
			callee = fn // qualified package function
		}
	}
	if callee == nil || a.pass.Module.Decl(callee) == nil {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	args := make(map[int]amArg)
	record := func(idx int, e ast.Expr) {
		t, ok := a.exprTaint(pkg, taint, e)
		if !ok {
			return
		}
		if _, exists := args[idx]; !exists && (t.inbound || t.artifact != nil) {
			args[idx] = amArg{param: t.param, inbound: t.inbound, artifact: t.artifact}
		}
	}
	if recvExpr != nil && sig.Recv() != nil {
		record(amRecvParam, recvExpr)
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		idx := i
		if sig.Variadic() && idx >= np-1 {
			idx = np - 1
		}
		if idx >= np {
			break
		}
		record(idx, arg)
	}
	if len(args) > 0 {
		facts.calls = append(facts.calls, amCall{pos: call.Pos(), callee: callee, args: args})
	}
}

// buildSummaries computes the writes-through-parameter fixpoint: direct
// crossing writes seed the summaries, then call sites propagate them up until
// nothing changes. Each summary keeps one representative mutation site with
// the function chain that reaches it.
func (a *amAnalysis) buildSummaries() {
	fns := a.pass.Module.Functions()
	for _, fn := range fns {
		for _, w := range a.facts[fn].writes {
			if !w.crossed || w.taint.param == amNoParam {
				continue
			}
			m := a.summary[fn]
			if m == nil {
				m = make(map[int]amSite)
				a.summary[fn] = m
			}
			if _, ok := m[w.taint.param]; !ok {
				m[w.taint.param] = amSite{pos: w.pos, expr: w.expr, chain: []*types.Func{fn}}
			}
		}
	}
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			for _, call := range a.facts[fn].calls {
				calleeSum := a.summary[call.callee]
				if len(calleeSum) == 0 {
					continue
				}
				for _, idx := range sortedParams(calleeSum) {
					arg, ok := call.args[idx]
					if !ok || arg.param == amNoParam || !arg.inbound {
						continue
					}
					m := a.summary[fn]
					if m == nil {
						m = make(map[int]amSite)
						a.summary[fn] = m
					}
					if _, ok := m[arg.param]; ok {
						continue
					}
					site := calleeSum[idx]
					m[arg.param] = amSite{
						pos:   site.pos,
						expr:  site.expr,
						chain: append([]*types.Func{fn}, site.chain...),
					}
					changed = true
				}
			}
		}
	}
}

func sortedParams(m map[int]amSite) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// report walks every reachable function and flags (a) direct crossing writes
// through an artifact access path and (b) calls that pass an artifact (or
// artifact interior) into a parameter the callee writes through. Each
// mutation site is reported once, under the first call path that reaches it.
func (a *amAnalysis) report(reach *Reachability) {
	seen := make(map[token.Pos]bool)
	for _, fn := range a.pass.Module.Functions() {
		if !reach.Contains(fn) {
			continue
		}
		facts := a.facts[fn]
		for _, w := range facts.writes {
			if !w.crossed || !w.taint.inbound || w.taint.artifact == nil || seen[w.pos] {
				continue
			}
			seen[w.pos] = true
			a.pass.Reportf(w.pos,
				"%s writes through published artifact %s via %s (reached by %s); artifacts are immutable after publication — build a fresh value instead",
				FuncDisplayName(fn), typeShortName(w.taint.artifact), w.expr, reach.Path(fn))
		}
		for _, call := range facts.calls {
			calleeSum := a.summary[call.callee]
			if len(calleeSum) == 0 {
				continue
			}
			for _, idx := range sortedParams(calleeSum) {
				arg, ok := call.args[idx]
				if !ok || !arg.inbound || arg.artifact == nil {
					continue
				}
				site := calleeSum[idx]
				if seen[site.pos] {
					continue
				}
				seen[site.pos] = true
				a.pass.Reportf(site.pos,
					"%s writes through published artifact %s via %s (reached by %s); artifacts are immutable after publication — build a fresh value instead",
					FuncDisplayName(site.chain[len(site.chain)-1]), typeShortName(arg.artifact), site.expr,
					joinPath(reach.Path(fn), site.chain))
			}
		}
	}
}

// joinPath appends the summary chain (callee first, writer last) to the root
// path reaching the call site's enclosing function.
func joinPath(rootPath string, chain []*types.Func) string {
	out := rootPath
	for _, fn := range chain {
		out += " -> " + FuncDisplayName(fn)
	}
	return out
}

// typeShortName renders a named type as pkg.Name.
func typeShortName(t types.Type) string {
	if n, ok := t.(*types.Named); ok {
		pkg := ""
		if n.Obj().Pkg() != nil {
			pkg = n.Obj().Pkg().Name() + "."
		}
		return pkg + n.Obj().Name()
	}
	return t.String()
}
