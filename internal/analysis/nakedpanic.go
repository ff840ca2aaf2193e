package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// NakedPanic flags panic calls in library packages outside sanctioned
// invariant helpers. A reachable-on-bad-input panic should be a
// returned error; a true invariant violation should fail through a
// helper whose name carries the Must/must convention (MustParse,
// mustFailf, mustInvariant, ...), which both documents the contract and
// gives this analyzer its allowlist. Test files are never analyzed.
var NakedPanic = &Analyzer{
	Name: "nakedpanic",
	Doc:  "panic outside Must*/must* invariant helpers in library packages",
	Run:  runNakedPanic,
}

func runNakedPanic(pass *Pass) {
	if !pass.InternalPackage() {
		return
	}
	pass.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		if strings.HasPrefix(fd.Name.Name, "Must") || strings.HasPrefix(fd.Name.Name, "must") {
			return
		}
		_, symbol := pass.EnclosingFuncName(fd.Name.Pos())
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			id, ok := call.Fun.(*ast.Ident)
			if !ok || id.Name != "panic" {
				return true
			}
			if _, isBuiltin := pass.Pkg.Info.Uses[id].(*types.Builtin); !isBuiltin {
				return true // a shadowed local named panic
			}
			pass.Reportf(call.Pos(), symbol,
				"naked panic in %s; return an error for reachable inputs or move the check into a must* invariant helper",
				fd.Name.Name)
			return true
		})
	})
}
