package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Statflow enforces counter parity across the intersect kernels: the
// paper's exactness argument (and the repo's bench gate and run
// reports) assume every intersection performed is visible in the
// *intersect.Stats the caller threads through the kernel chain. Four
// ways of silently dropping counts are findings:
//
//  1. passing a nil *Stats at a call site while the enclosing function
//     itself received a *Stats parameter (the caller has a live
//     counter sink and drops it),
//  2. reassigning or shadowing a *Stats parameter (counts recorded
//     into the original sink stop flowing),
//  3. a *Stats parameter that is never used in a function reachable
//     from an instrumented intersect entry point (declared parity,
//     no actual counting),
//  4. calling an exported, count-returning intersect kernel that has
//     no *Stats parameter at all from outside the package (a kernel
//     whose intersections never reach Stats, as the since-deleted
//     counting kernel once did).
//
// Passing nil where the enclosing function has no stats sink in scope
// is legal: uninstrumented probing (approx, planners) is a documented
// pattern.
var Statflow = &Analyzer{
	Name: "statflow",
	Doc:  "intersect kernel paths must thread the *Stats counter parameter",
	Run:  runStatflow,
}

// statsTypes collects the named Stats types declared in packages named
// intersect (the real module has one; fixture modules may add more).
func statsTypes(m *Module) map[*types.TypeName]bool {
	out := map[*types.TypeName]bool{}
	for _, pkg := range m.Packages {
		if pkg.Pkg.Name() != "intersect" {
			continue
		}
		if tn, ok := pkg.Pkg.Scope().Lookup("Stats").(*types.TypeName); ok {
			out[tn] = true
		}
	}
	return out
}

// isStatsPtr reports whether t is a pointer to one of the Stats types.
func isStatsPtr(stats map[*types.TypeName]bool, t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	return ok && stats[named.Obj()]
}

func runStatflow(m *Module) []Finding {
	stats := statsTypes(m)
	if len(stats) == 0 {
		return nil
	}
	g := m.CallGraph()
	isStats := func(t types.Type) bool { return isStatsPtr(stats, t) }

	// Instrumented entry points: exported intersect functions carrying
	// a *Stats parameter. Everything reachable from them is a counting
	// path, where an unused *Stats parameter means dropped parity.
	var entries []*types.Func
	for _, fn := range g.Funcs() {
		n := g.Node(fn)
		if n.Pkg.Pkg.Name() != "intersect" || !fn.Exported() {
			continue
		}
		if len(paramObjects(n.Pkg.Info, n.Decl, isStats)) > 0 {
			entries = append(entries, fn)
		}
	}
	counting := g.Reachable(entries, EdgeAll, func(n *Node) bool {
		return m.FuncIgnores(n.Decl, "statflow")
	})

	var findings []Finding
	for _, fn := range g.Funcs() {
		n := g.Node(fn)
		if m.FuncIgnores(n.Decl, "statflow") {
			continue
		}
		findings = append(findings, checkStatflowFunc(m, g, n, stats, counting)...)
	}
	return findings
}

// checkStatflowFunc applies the four rules to one declaration.
func checkStatflowFunc(m *Module, g *CallGraph, n *Node, stats map[*types.TypeName]bool, counting map[*types.Func]bool) []Finding {
	info := n.Pkg.Info
	isStats := func(t types.Type) bool { return isStatsPtr(stats, t) }
	params := paramObjects(info, n.Decl, isStats)
	var findings []Finding

	// Rule 3: declared-but-dead parity on a counting path. Named
	// parameters that are never read, plus blank or anonymous *Stats
	// parameters (which can never be read), in functions reachable
	// from an instrumented entry point.
	if counting[n.Fn] {
		for _, p := range params {
			if !usesObject(info, n.Decl.Body, p) {
				findings = append(findings, n.Pkg.finding("statflow", n.Decl.Name,
					"*Stats parameter %s is never used; counts on this path are invisible to callers", p.Name()))
			}
		}
		if n.Decl.Type.Params != nil {
			for _, field := range n.Decl.Type.Params.List {
				tv := info.TypeOf(field.Type)
				if tv == nil || !isStats(tv) {
					continue
				}
				if len(field.Names) == 0 {
					findings = append(findings, n.Pkg.finding("statflow", field,
						"anonymous *Stats parameter can never be used; counts on this path are invisible to callers"))
				}
				for _, name := range field.Names {
					if name.Name == "_" {
						findings = append(findings, n.Pkg.finding("statflow", name,
							"blank *Stats parameter discards counts on this path"))
					}
				}
			}
		}
	}

	// Rule 2: reassigning or shadowing a *Stats parameter.
	paramNames := map[string]bool{}
	for _, p := range params {
		paramNames[p.Name()] = true
	}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		assign, ok := x.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range assign.Lhs {
			id, ok := ast.Unparen(lhs).(*ast.Ident)
			if !ok {
				continue
			}
			if assign.Tok == token.DEFINE {
				if paramNames[id.Name] && info.Defs[id] != nil {
					findings = append(findings, n.Pkg.finding("statflow", id,
						"shadows the *Stats parameter %s; later counts go to the shadow and are dropped", id.Name))
				}
				continue
			}
			for _, p := range params {
				if info.Uses[id] == p {
					findings = append(findings, n.Pkg.finding("statflow", id,
						"reassigns the *Stats parameter %s; counts recorded so far stop flowing to the caller", id.Name))
				}
			}
		}
		return true
	})

	// Rules 1 and 4: call-site checks.
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Rule 1: nil passed in a *Stats slot while a *Stats parameter
		// is in scope.
		if len(params) > 0 {
			if sig, ok := info.TypeOf(call.Fun).(*types.Signature); ok {
				for i, arg := range call.Args {
					if i >= sig.Params().Len() {
						break
					}
					if isStats(sig.Params().At(i).Type()) && isNilExpr(info, arg) {
						findings = append(findings, n.Pkg.finding("statflow", arg,
							"passes nil for the *Stats argument while %s is in scope; counters on this path are silently dropped", params[0].Name()))
					}
				}
			}
		}
		// Rule 4: cross-package call to an uninstrumented kernel.
		callee := staticCallee(info, call)
		if callee == nil || callee.Pkg() == nil || callee.Pkg() == n.Pkg.Pkg {
			return true
		}
		cn := g.Node(callee)
		if cn == nil || cn.Pkg.Pkg.Name() != "intersect" || !callee.Exported() {
			return true
		}
		if isUninstrumentedKernel(callee, stats) {
			findings = append(findings, n.Pkg.finding("statflow", call,
				"calls uninstrumented intersect kernel %s (no *Stats parameter); intersections on this path are invisible to run accounting", callee.Name()))
		}
		return true
	})
	return findings
}

// isUninstrumentedKernel reports whether fn has the shape of a counting
// kernel — at least two parameters of one identical slice type and an
// integer first result — but no *Stats parameter to record into.
func isUninstrumentedKernel(fn *types.Func, stats map[*types.TypeName]bool) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Results().Len() == 0 {
		return false
	}
	res, ok := sig.Results().At(0).Type().Underlying().(*types.Basic)
	if !ok || res.Info()&types.IsInteger == 0 {
		return false
	}
	var sliceTypes []types.Type
	for i := 0; i < sig.Params().Len(); i++ {
		pt := sig.Params().At(i).Type()
		if isStatsPtr(stats, pt) {
			return false
		}
		if _, ok := pt.Underlying().(*types.Slice); ok {
			sliceTypes = append(sliceTypes, pt)
		}
	}
	for i := 0; i < len(sliceTypes); i++ {
		for j := i + 1; j < len(sliceTypes); j++ {
			if types.Identical(sliceTypes[i], sliceTypes[j]) {
				return true
			}
		}
	}
	return false
}
