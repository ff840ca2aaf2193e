package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// MetricName flags metric-name arguments to obs.Registry's Counter,
// Gauge, Histogram, Span, StartOp and StartOpTrace methods and to
// Span.Span (every child span's name) that break the repository's
// naming convention: a lowercase dotted path of at least two segments,
// "pkg.group.name" (segments are [a-z][a-z0-9_]*). The README's
// Observability glossary, the OpenMetrics exporter and the expvar
// bridge all assume this shape, and a one-off name silently falls out
// of every dashboard. Dynamically built names ("core.repair." +
// outcome) are allowed when the literal prefix is itself a dotted path
// ending in "."; a literal that duplicates a package-level string
// constant is flagged toward the constant, since two spellings of one
// name drift apart.
// It also guards the labeled-family surface: the CounterVec, GaugeVec
// and HistogramVec constructors get the same name check plus label-key
// validation, and the key positions of the vec With methods must be
// compile-time lower_snake strings — a dynamic key is a cardinality
// accident waiting to happen (dynamic *values* are fine; the runtime
// cap bounds those).
var MetricName = &Analyzer{
	Name: "metricname",
	Doc:  "metric-name literals off the pkg.group.name convention",
	Run:  runMetricName,
}

// metricNameRE is the convention for complete names: two or more
// lowercase dotted segments.
var metricNameRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$`)

// metricPrefixRE covers the trimmed literal prefix of a dynamic name,
// which may be a single segment ("sim." + kind).
var metricPrefixRE = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)*$`)

// labelKeyRE is the label-key convention: lower_snake, starting with a
// letter, no dots (keys render inside OpenMetrics label clauses, where
// dots are illegal).
var labelKeyRE = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

// metricMethods are the obs.Registry methods whose first argument is a
// metric name; an operation's and a span's name is the name of the
// histogram its duration lands in.
var metricMethods = map[string]bool{
	"Counter":      true,
	"Gauge":        true,
	"Histogram":    true,
	"Span":         true,
	"StartOp":      true,
	"StartOpTrace": true,
	"CounterVec":   true,
	"GaugeVec":     true,
	"HistogramVec": true,
}

// vecMethods are the metricMethods that additionally declare label keys
// in their trailing arguments.
var vecMethods = map[string]bool{
	"CounterVec":   true,
	"GaugeVec":     true,
	"HistogramVec": true,
}

// vecTypes are the labeled-family handle types whose With method takes
// alternating key/value pairs.
var vecTypes = map[string]bool{
	"CounterVec":   true,
	"GaugeVec":     true,
	"HistogramVec": true,
}

func runMetricName(pass *Pass) {
	if !pass.InternalPackage() {
		return
	}
	consts := packageStringConsts(pass)
	pass.Preorder([]ast.Node{(*ast.CallExpr)(nil)}, func(n ast.Node) {
		call := n.(*ast.CallExpr)
		if len(call.Args) == 0 {
			return
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return
		}
		fn, ok := pass.Pkg.Info.Uses[sel.Sel].(*types.Func)
		if !ok {
			return
		}
		recv := obsReceiverName(pass, fn)
		switch {
		case recv == "Registry" && metricMethods[fn.Name()]:
			checkMetricName(pass, fn.Name(), call.Args[0], consts)
			if vecMethods[fn.Name()] {
				checkLabelKeys(pass, fn.Name(), call, call.Args[1:], false)
			}
		case recv == "Span" && fn.Name() == "Span":
			checkMetricName(pass, "Span", call.Args[0], consts)
		case vecTypes[recv] && fn.Name() == "With":
			checkLabelKeys(pass, "With", call, call.Args, true)
		}
	})
}

// packageStringConsts maps the value of every package-level string
// constant with an explicit literal initializer to its name.
func packageStringConsts(pass *Pass) map[string]string {
	consts := map[string]string{}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.CONST {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					if i >= len(vs.Values) {
						break
					}
					lit, ok := vs.Values[i].(*ast.BasicLit)
					if !ok || lit.Kind != token.STRING {
						continue
					}
					if v, ok := stringConstOf(pass, lit); ok {
						if _, dup := consts[v]; !dup {
							consts[v] = name.Name
						}
					}
				}
			}
		}
	}
	return consts
}

// obsReceiverName returns the name of fn's receiver type when that
// type is declared in the module's internal/obs package, and ""
// otherwise. It is how the analyzer recognizes Registry and the vec
// handle types without importing obs itself.
func obsReceiverName(pass *Pass, fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if pt, ok := t.(*types.Pointer); ok {
		t = pt.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return ""
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != pass.Pkg.Module+"/internal/obs" {
		return ""
	}
	return obj.Name()
}

// stringConstOf resolves e's compile-time string value, if it has one.
func stringConstOf(pass *Pass, e ast.Expr) (string, bool) {
	tv, ok := pass.Pkg.Info.Types[e]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// checkMetricName validates one name argument. Names that cannot be
// resolved at compile time (a plain variable) are out of scope.
func checkMetricName(pass *Pass, method string, arg ast.Expr, consts map[string]string) {
	_, symbol := pass.EnclosingFuncName(arg.Pos())
	if v, ok := stringConstOf(pass, arg); ok {
		if lit, isLit := arg.(*ast.BasicLit); isLit {
			if name, dup := consts[v]; dup {
				pass.Reportf(lit.Pos(), symbol,
					"%s(%q) duplicates the package constant %s; use the constant so the name cannot drift",
					method, v, name)
				return
			}
		}
		if !metricNameRE.MatchString(v) {
			pass.Reportf(arg.Pos(), symbol,
				"%s(%q): metric names are lowercase dotted paths of two or more segments, like \"pkg.group.name\"",
				method, v)
		}
		return
	}
	be, ok := arg.(*ast.BinaryExpr)
	if !ok || be.Op != token.ADD {
		return
	}
	prefix, ok := stringConstOf(pass, be.X)
	if !ok {
		return
	}
	trimmed, dotted := strings.CutSuffix(prefix, ".")
	if !dotted || !metricPrefixRE.MatchString(trimmed) {
		pass.Reportf(be.Pos(), symbol,
			"%s(%q + ...): a dynamic metric name needs a lowercase dotted literal prefix ending in \".\"",
			method, prefix)
	}
}

// checkLabelKeys validates the label-key positions of a vec
// constructor (every arg is a key) or a With call (alternating
// key/value pairs; even indices are keys). Keys must be compile-time
// strings in lower_snake — a dynamic key turns user data into schema,
// and a dotted or mixed-case key dies at the OpenMetrics boundary.
// Values stay out of scope: dynamic values are the whole point of a
// labeled family, and the runtime cardinality cap bounds them. Calls
// that spread a slice (kv...) can't be checked statically and are
// skipped.
func checkLabelKeys(pass *Pass, method string, call *ast.CallExpr, args []ast.Expr, kvPairs bool) {
	if call.Ellipsis.IsValid() {
		return
	}
	_, symbol := pass.EnclosingFuncName(call.Pos())
	if kvPairs && len(args)%2 != 0 {
		pass.Reportf(call.Pos(), symbol,
			"%s with %d label arguments: keys and values must come in pairs",
			method, len(args))
	}
	for i, arg := range args {
		if kvPairs && i%2 != 0 {
			continue // value position
		}
		v, ok := stringConstOf(pass, arg)
		if !ok {
			pass.Reportf(arg.Pos(), symbol,
				"%s: label keys must be compile-time constants (a dynamic key is unbounded cardinality); pass the variable as the value",
				method)
			continue
		}
		if !labelKeyRE.MatchString(v) {
			pass.Reportf(arg.Pos(), symbol,
				"%s(%q): label keys are lower_snake identifiers — no dots, no uppercase",
				method, v)
		}
	}
}
