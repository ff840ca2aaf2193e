package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotAlloc machine-enforces the repository's allocation-free hot
// paths. A function opts in with a
//
//	//starlint:hotpath
//
// directive in its doc comment, or by being listed in the driver
// config as "hotpath <symbol>". A marked function must be
// *transitively* allocation-free under the facts engine's conservative
// model: no make/new/append, no escaping composite literals, no
// interface boxing, no capturing closures, no string building, no
// go statements, and every call must resolve to a function that is
// itself proven allocation-free (module callees by their facts,
// stdlib callees by a small trusted vocabulary — sync/atomic,
// math/bits, math, mutex lock/unlock). Dynamic calls through
// interfaces or function values cannot be proven and are flagged.
//
// The enforced sites are the per-step ring surgery in Plan.Repair
// (Plan.applySplice, whose whole change to the ring positions is one
// Fenwick update of O(log(#blocks/64)) words, skeleton.resize), the
// static-table read that routes every fault-free block
// (pathsearch.Hamiltonian), the two table reads that answer every
// route test of the strict algorithm through Block.Route, the junction
// search's on a faulty block and a repair's splice
// (pathsearch.tableRoute), the disabled-observability fast path, the
// skeleton's per-block steps — its block lookup (skeleton.blockOf, the
// walk of the R4's refinement record superring.(*Tree).Locate), its
// offset lookup and position search over the Fenwick checkpoints
// (skeleton.offset and skeleton.find), the isomorphism computed for
// each block a route test takes to Block.Route (pathsearch.BlockAt)
// and the step-word replay of every block read back (skeleton.replay
// and pathsearch.Steps.Replay)
// — and the per-vertex steps of the ring
// pipeline: the cursor's emit (RingCursor.nextFast) and per-segment
// run read (RingCursor.rest), the canonical-to-ambient vertex map
// (Block.FromCanon), the ring writer's one-pass validity and rank
// (perm.Code.RankValid), the verifier's adjacency test (perm.DimOf,
// which the compiler inlines), its index's table step and
// recomputation (check.vertexIndex's step and locate) and its run loop
// over the in-P steps of a fed segment (check.StreamVerifier.run); see
// ROADMAP.md. perm.UnrankCode, the
// ring reader's per-vertex decode, cannot carry the marker — its
// precondition panics box their arguments — so TestUnrankCodeAllocs
// pins it allocation-free instead. The analyzer keeps them honest
// against refactors that would put an allocation on the paper's
// O(1)-per-step repair claim or on every vertex of an n!-vertex ring.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "allocations reachable from //starlint:hotpath functions",
	Run:  runHotAlloc,
}

// hotpathDirective marks a function as a hot path in its doc comment.
const hotpathDirective = "//starlint:hotpath"

func runHotAlloc(pass *Pass) {
	pass.Preorder([]ast.Node{(*ast.FuncDecl)(nil)}, func(n ast.Node) {
		fd := n.(*ast.FuncDecl)
		if fd.Body == nil {
			return
		}
		name, symbol := pass.EnclosingFuncName(fd.Name.Pos())
		if !hotpathMarked(pass, fd, symbol) {
			return
		}
		scanAllocs(pass.Pkg, fd.Body, func(pos token.Pos, what string, callee *types.Func) {
			if callee == nil {
				pass.Reportf(pos, symbol, "hotpath function %s allocates: %s", name, what)
				return
			}
			cf := pass.Facts.FuncFact(callee)
			if cf == nil {
				pass.Reportf(pos, symbol,
					"hotpath function %s calls %s, which was not analyzed and cannot be proven allocation-free",
					name, shortFunc(callee))
				return
			}
			if cause := cf.Allocates(); cause != nil {
				pass.Reportf(pos, symbol,
					"hotpath function %s calls %s, which allocates (%s)",
					name, shortFunc(callee), pass.Facts.AllocChainString(callee))
			}
		})
	})
}

// hotpathMarked reports whether fd opts into hotalloc enforcement via
// its doc comment or the driver config.
func hotpathMarked(pass *Pass, fd *ast.FuncDecl, symbol string) bool {
	if fd.Doc != nil {
		for _, c := range fd.Doc.List {
			if c.Text == hotpathDirective || strings.HasPrefix(c.Text, hotpathDirective+" ") {
				return true
			}
		}
	}
	return pass.Cfg.Hotpath(symbol)
}
