package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CapContract guards the kernels' caller-supplied-buffer convention:
// writing into a caller's slice beyond what the call site can see must
// be either checked or documented. In any function taking slice
// parameters, two operations are findings unless covered:
//
//   - reslicing a parameter to its capacity (p[:cap(p)]), which
//     exposes memory past len(p) to writes, and
//   - copy into a parameter-derived destination, which silently
//     truncates when the destination is shorter than the source (the
//     pre-fix MultiWay shape from PR 5).
//
// Coverage is either a checked guard — an if condition mentioning
// cap(p) or len(p) for the same parameter anywhere in the function —
// or the //light:cap-contract annotation in the function's doc
// comment, which documents that the function's contract makes
// under-capacity a caller bug (typically a documented panic). A copy
// whose destination and source are reslices with syntactically
// identical bounds (copy(dst[:n], src[:n])) is provably
// non-truncating and exempt.
//
// A third operation needs the checked guard even in an annotated
// function: passing a slice parameter (or a reslice of one) to a
// function declared without a body. Such a function is assembly with no
// bounds checks, so under-capacity corrupts memory instead of
// panicking, and the annotation's "the write panics" contract cannot
// hold.
var CapContract = &Analyzer{
	Name: "capcontract",
	Doc:  "copies and cap-reslices of caller-supplied slices need a guard or //light:cap-contract; passing them to assembly needs a guard",
	Run:  runCapContract,
}

// capContractAnnotated reports whether a doc comment carries the
// //light:cap-contract directive.
func capContractAnnotated(doc *ast.CommentGroup) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.TrimSpace(c.Text) == "//light:cap-contract" {
			return true
		}
	}
	return false
}

func runCapContract(m *Module) []Finding {
	g := m.CallGraph()
	var findings []Finding
	for _, fn := range g.Funcs() {
		n := g.Node(fn)
		findings = append(findings, checkCapContract(g, n, capContractAnnotated(n.Decl.Doc))...)
	}
	return findings
}

// checkCapContract reports n's unguarded writes into slice parameters.
// An annotated function is checked only for calls into assembly.
func checkCapContract(g *CallGraph, n *Node, annotated bool) []Finding {
	info := n.Pkg.Info
	isSlice := func(t types.Type) bool {
		_, ok := t.Underlying().(*types.Slice)
		return ok
	}
	params := paramObjects(info, n.Decl, isSlice)
	if len(params) == 0 {
		return nil
	}
	paramSet := map[types.Object]bool{}
	for _, p := range params {
		paramSet[p] = true
	}

	// paramOf resolves an expression to the slice parameter it denotes
	// (through parens and reslices of the parameter).
	var paramOf func(e ast.Expr) types.Object
	paramOf = func(e ast.Expr) types.Object {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			if obj := info.Uses[x]; obj != nil && paramSet[obj] {
				return obj
			}
		case *ast.SliceExpr:
			return paramOf(x.X)
		}
		return nil
	}

	// guarded: parameters whose cap or len appears in an if condition
	// anywhere in the function (the copySingle discipline:
	// "if cap(dst) < len(s) { panic }").
	guarded := map[types.Object]bool{}
	markGuards := func(cond ast.Expr) {
		if cond == nil {
			return
		}
		ast.Inspect(cond, func(x ast.Node) bool {
			call, ok := x.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch builtinName(info, call) {
			case "cap", "len":
				if len(call.Args) == 1 {
					if obj := paramOf(call.Args[0]); obj != nil {
						guarded[obj] = true
					}
				}
			}
			return true
		})
	}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		if ifs, ok := x.(*ast.IfStmt); ok {
			markGuards(ifs.Cond)
		}
		return true
	})

	// copyDsts marks slice expressions used directly as a copy
	// destination, so the cap-reslice rule defers to the copy rule and
	// one site yields one finding.
	copyDsts := map[ast.Expr]bool{}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if ok && builtinName(info, call) == "copy" && len(call.Args) == 2 {
			copyDsts[ast.Unparen(call.Args[0])] = true
		}
		return true
	})

	var findings []Finding
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		call, ok := x.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := staticCallee(info, call)
		if callee == nil || !g.Bodiless(callee) {
			return true
		}
		for _, arg := range call.Args {
			if obj := paramOf(arg); obj != nil && !guarded[obj] {
				findings = append(findings, n.Pkg.finding("capcontract", arg,
					"passes caller-supplied %s to body-less %s, which has no bounds checks; guard len(%s)/cap(%s) in an if condition (//light:cap-contract does not cover it)", obj.Name(), callee.Name(), obj.Name(), obj.Name()))
			}
		}
		return true
	})
	if annotated {
		return findings
	}
	ast.Inspect(n.Decl.Body, func(x ast.Node) bool {
		switch node := x.(type) {
		case *ast.SliceExpr:
			if copyDsts[node] {
				return true
			}
			obj := paramOf(node.X)
			if obj == nil || guarded[obj] {
				return true
			}
			if isCapReslice(info, node, obj) {
				findings = append(findings, n.Pkg.finding("capcontract", node,
					"reslices caller-supplied %s to cap(%s) without a capacity guard; add a checked guard or annotate the function //light:cap-contract", obj.Name(), obj.Name()))
			}
		case *ast.CallExpr:
			if builtinName(info, node) != "copy" || len(node.Args) != 2 {
				return true
			}
			dst, src := node.Args[0], node.Args[1]
			obj := paramOf(dst)
			if obj == nil || guarded[obj] {
				return true
			}
			if identicalBounds(dst, src) {
				return true
			}
			findings = append(findings, n.Pkg.finding("capcontract", node,
				"copy into caller-supplied %s may silently truncate; guard cap(%s)/len(%s) or annotate the function //light:cap-contract", obj.Name(), obj.Name(), obj.Name()))
		}
		return true
	})
	return findings
}

// isCapReslice reports whether the slice expression's high bound is
// cap(obj) — the shape that exposes memory past len to writes.
func isCapReslice(info *types.Info, se *ast.SliceExpr, obj types.Object) bool {
	if se.High == nil {
		return false
	}
	call, ok := ast.Unparen(se.High).(*ast.CallExpr)
	if !ok || builtinName(info, call) != "cap" || len(call.Args) != 1 {
		return false
	}
	return exprIsObject(info, call.Args[0], obj)
}

// identicalBounds reports whether dst and src are both slice
// expressions with syntactically identical high bounds
// (copy(dst[:n], src[:n])), which cannot truncate.
func identicalBounds(dst, src ast.Expr) bool {
	d, ok := ast.Unparen(dst).(*ast.SliceExpr)
	if !ok || d.High == nil {
		return false
	}
	s, ok := ast.Unparen(src).(*ast.SliceExpr)
	if !ok || s.High == nil {
		return false
	}
	return types.ExprString(d.High) == types.ExprString(s.High)
}
