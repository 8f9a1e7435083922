package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// EdgeKind classifies how control may transfer along a call-graph edge.
// Kinds are bit flags so analyzers can select the subset whose soundness
// trade-off fits their invariant: hotpath propagates over EdgeCall only
// (a dynamic call cannot prove a callee hot), while reachability-style
// analyzers (statflow, cancelpoll) traverse EdgeAll to over-approximate.
type EdgeKind uint8

const (
	// EdgeCall is a statically resolved direct call: a plain function
	// call, a package-qualified call, or a method call on a concrete
	// receiver.
	EdgeCall EdgeKind = 1 << iota
	// EdgeRef is a function or method value reference outside call
	// position. The callee may run wherever the value flows, so
	// reachability analyses treat a reference as a possible call.
	EdgeRef
	// EdgeIface is a conservative interface-dispatch candidate: an edge
	// to every module method whose receiver type implements the
	// interface the call (or method value) goes through.
	EdgeIface
)

// EdgeAll selects every edge kind.
const EdgeAll = EdgeCall | EdgeRef | EdgeIface

// String renders the kind for diagnostics and determinism tests.
func (k EdgeKind) String() string {
	switch k {
	case EdgeCall:
		return "call"
	case EdgeRef:
		return "ref"
	case EdgeIface:
		return "iface"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Edge is one directed edge of the static call graph.
type Edge struct {
	Caller *types.Func
	Callee *types.Func
	Kind   EdgeKind
	Site   token.Pos
}

// Node is one module function that has a body. Function literals do not
// get nodes of their own: calls inside a literal are attributed to the
// enclosing declaration, which over-approximates "defining the closure
// may run its body" — the right direction for reachability analyses.
type Node struct {
	Fn   *types.Func
	Pkg  *Package
	Decl *ast.FuncDecl
	// Out holds the node's outgoing edges in source order (interface
	// candidates for one site are ordered by candidate declaration
	// order), so two builds of the same module yield identical graphs.
	Out []Edge
}

// CallGraph is the static call graph over every function declared with a
// body in the loaded module. It is built once per Module and shared by
// all interprocedural analyzers.
type CallGraph struct {
	nodes map[*types.Func]*Node
	order []*types.Func
	// bodiless holds the module functions declared without a body:
	// assembly (or linkname) implementations, which get no node.
	bodiless map[*types.Func]bool
}

// CallGraph returns the module's call graph, building it on first use.
func (m *Module) CallGraph() *CallGraph {
	if m.cg == nil {
		m.cg = buildCallGraph(m)
	}
	return m.cg
}

// Funcs returns every node's function in deterministic (declaration
// source) order.
func (g *CallGraph) Funcs() []*types.Func {
	return g.order
}

// Node returns the graph node for fn, or nil if fn is not a module
// function with a body.
func (g *CallGraph) Node(fn *types.Func) *Node {
	return g.nodes[fn]
}

// Bodiless reports whether fn is a module function declared without a
// body, i.e. implemented in assembly.
func (g *CallGraph) Bodiless(fn *types.Func) bool {
	return g.bodiless[fn]
}

// Edges returns every edge of the graph, callers in declaration order,
// each caller's edges in source order.
func (g *CallGraph) Edges() []Edge {
	var out []Edge
	for _, fn := range g.order {
		out = append(out, g.nodes[fn].Out...)
	}
	return out
}

// Reachable returns the functions reachable from roots over edges whose
// kind is in kinds. Roots themselves are included. A function for which
// skip returns true is not entered: it is excluded from the result and
// its callees are not explored through it. skip may be nil.
func (g *CallGraph) Reachable(roots []*types.Func, kinds EdgeKind, skip func(*Node) bool) map[*types.Func]bool {
	seen := map[*types.Func]bool{}
	var queue []*types.Func
	push := func(fn *types.Func) {
		n := g.nodes[fn]
		if n == nil || seen[fn] || (skip != nil && skip(n)) {
			return
		}
		seen[fn] = true
		queue = append(queue, fn)
	}
	for _, r := range roots {
		push(r)
	}
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		for _, e := range g.nodes[fn].Out {
			if e.Kind&kinds != 0 {
				push(e.Callee)
			}
		}
	}
	return seen
}

// buildCallGraph constructs the graph: one pass collecting nodes and the
// interface-method candidate index, one pass per body emitting edges.
func buildCallGraph(m *Module) *CallGraph {
	g := &CallGraph{nodes: map[*types.Func]*Node{}, bodiless: map[*types.Func]bool{}}
	// methodsByName indexes concrete module methods for interface
	// dispatch candidates, in declaration order for determinism.
	methodsByName := map[string][]*types.Func{}
	for _, pkg := range m.Packages {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				obj, ok := pkg.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				if fd.Body == nil {
					g.bodiless[obj] = true
					continue
				}
				g.nodes[obj] = &Node{Fn: obj, Pkg: pkg, Decl: fd}
				g.order = append(g.order, obj)
				if fd.Recv != nil {
					methodsByName[obj.Name()] = append(methodsByName[obj.Name()], obj)
				}
			}
		}
	}
	for _, fn := range g.order {
		n := g.nodes[fn]
		emitEdges(g, n, methodsByName)
	}
	return g
}

// emitEdges walks one declaration body and appends its outgoing edges.
func emitEdges(g *CallGraph, n *Node, methodsByName map[string][]*types.Func) {
	info := n.Pkg.Info
	// callFuns marks expressions appearing in call position so the
	// reference pass below does not double-count them.
	callFuns := map[ast.Expr]bool{}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		if call, ok := node.(*ast.CallExpr); ok {
			callFuns[ast.Unparen(call.Fun)] = true
		}
		return true
	})
	// consumed marks selector Sel idents already handled so the plain
	// ident case does not re-emit them.
	consumed := map[*ast.Ident]bool{}
	add := func(callee *types.Func, kind EdgeKind, site token.Pos) {
		if _, inModule := g.nodes[callee]; !inModule {
			return
		}
		n.Out = append(n.Out, Edge{Caller: n.Fn, Callee: callee, Kind: kind, Site: site})
	}
	// ifaceCandidates appends an edge per module method implementing
	// the interface method called or referenced at the site.
	ifaceCandidates := func(sel *types.Selection, kind EdgeKind, site token.Pos) {
		iface, ok := sel.Recv().Underlying().(*types.Interface)
		if !ok {
			return
		}
		for _, cand := range methodsByName[sel.Obj().Name()] {
			recv := cand.Type().(*types.Signature).Recv().Type()
			if types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface) {
				add(cand, kind, site)
			}
		}
	}
	ast.Inspect(n.Decl.Body, func(node ast.Node) bool {
		switch x := node.(type) {
		case *ast.CallExpr:
			if callee := staticCallee(info, x); callee != nil {
				add(callee, EdgeCall, x.Pos())
				return true
			}
			if sel, ok := ast.Unparen(x.Fun).(*ast.SelectorExpr); ok {
				if s, ok := info.Selections[sel]; ok {
					switch s.Kind() {
					case types.MethodVal:
						ifaceCandidates(s, EdgeIface, x.Pos())
					case types.MethodExpr:
						// T.m(recv, ...): a direct call when T is
						// concrete, dispatch candidates when T is an
						// interface.
						if f, ok := s.Obj().(*types.Func); ok {
							if _, isIface := s.Recv().Underlying().(*types.Interface); isIface {
								ifaceCandidates(s, EdgeIface, x.Pos())
							} else {
								add(f, EdgeCall, x.Pos())
							}
						}
					}
				}
			}
		case *ast.SelectorExpr:
			if callFuns[x] {
				consumed[x.Sel] = true
				return true
			}
			if s, ok := info.Selections[x]; ok {
				// Method value (x.m) or method expression (T.m)
				// outside call position.
				if f, ok := s.Obj().(*types.Func); ok {
					consumed[x.Sel] = true
					if _, isIface := s.Recv().Underlying().(*types.Interface); isIface {
						ifaceCandidates(s, EdgeIface, x.Pos())
					} else {
						add(f, EdgeRef, x.Pos())
					}
				}
				return true
			}
			// Package-qualified function reference: pkg.F as a value.
			if f, ok := info.Uses[x.Sel].(*types.Func); ok {
				consumed[x.Sel] = true
				add(f, EdgeRef, x.Pos())
			}
		case *ast.Ident:
			if callFuns[x] || consumed[x] || info.Defs[x] != nil {
				return true
			}
			if f, ok := info.Uses[x].(*types.Func); ok {
				add(f, EdgeRef, x.Pos())
			}
		}
		return true
	})
}

// staticCallee resolves a call expression to the *types.Func it
// statically invokes: plain function calls, package-qualified calls, and
// method calls on concrete receivers. Calls through function values,
// fields, and interface methods return nil.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fun]; ok {
			if sel.Kind() == types.MethodVal {
				if f, ok := sel.Obj().(*types.Func); ok {
					// Interface method calls dispatch dynamically.
					if _, isIface := sel.Recv().Underlying().(*types.Interface); isIface {
						return nil
					}
					return f
				}
			}
			return nil
		}
		// Package-qualified: pkg.Func.
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}
