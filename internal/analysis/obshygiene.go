package analysis

import (
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"regexp"
	"strings"
)

// AnalyzerObsHygiene enforces the observability contract of the serving
// tiers (serve, fleet, edgecloud):
//
//   - data muxes are wrapped: every *http.ServeMux that receives
//     Handle/HandleFunc registrations must pass through obs.Middleware
//     before serving, so every handler gets trace-id echo, slow-request
//     logging and span roots;
//   - ops routes come from obs.OpsMux: a literal /healthz, /readyz, /statsz,
//     /metricsz, /alertz or /debug/flightz pattern registered by hand is a
//     second ops surface waiting to drift from the shared one;
//   - metric names passed to obs.Prom must be compile-time constants (the
//     bounded-cardinality guarantee starts with statically known families)
//     matching Prometheus naming rules, with the repo's unit-suffix
//     conventions: counters end in _total, histograms carry a unit suffix
//     (_ms, _seconds, _bytes, _pj, _ops), and no name uses the reserved
//     _bucket/_sum/_count endings. Helpers that forward a string parameter
//     into a Prom method are treated as sinks themselves, so their call
//     sites are checked instead.
var AnalyzerObsHygiene = &Analyzer{
	Name: "obshygiene",
	Doc:  "handlers outside obs.Middleware, hand-registered ops routes and malformed metric names",
	Run:  runObsHygiene,
}

var obsHygieneRels = []string{"internal/serve", "internal/fleet", "internal/edgecloud"}

// opsRouteRe matches a mux pattern (optional method, then path) naming one
// of the routes obs.OpsMux owns.
var opsRouteRe = regexp.MustCompile(`^([A-Z]+ )?/(healthz|readyz|statsz|metricsz|alertz|debug/flightz)$`)

var metricNameRe = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

var histogramUnits = []string{"_ms", "_seconds", "_bytes", "_pj", "_ops"}

func runObsHygiene(p *Pass) {
	if !hasRelPrefix(p.Pkg, obsHygieneRels...) {
		return
	}
	checkMuxWrapping(p)
	checkMetricNames(p)
}

// --- mux wrapping ---

func checkMuxWrapping(p *Pass) {
	info := p.Pkg.Info
	registered := make(map[types.Object]token.Pos)
	wrapped := make(map[types.Object]bool)
	for _, file := range p.Pkg.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok &&
				(sel.Sel.Name == "Handle" || sel.Sel.Name == "HandleFunc") &&
				isServeMux(info.Types[sel.X].Type) {
				if obj := referencedObject(info, sel.X); obj != nil {
					if _, seen := registered[obj]; !seen {
						registered[obj] = call.Pos()
					}
				}
				if len(call.Args) > 0 {
					if tv := info.Types[call.Args[0]]; tv.Value != nil && tv.Value.Kind() == constant.String && opsRouteRe.MatchString(constant.StringVal(tv.Value)) {
						p.Reportf(call.Args[0].Pos(), "ops route %s registered by hand: ops routes come from obs.OpsMux", tv.Value.ExactString())
					}
				}
			}
			if callee := calleeOf(info, call); callee != nil && callee.Name() == "Middleware" &&
				callee.Pkg() != nil && strings.HasSuffix(callee.Pkg().Path(), "internal/obs") {
				for _, arg := range call.Args {
					markMuxObjects(info, arg, wrapped)
				}
			}
			return true
		})
	}
	for obj, pos := range registered {
		if !wrapped[obj] {
			p.Reportf(pos, "handlers registered on %s but the mux is never wrapped by obs.Middleware: requests will miss tracing, trace-id echo and slow-request logging", obj.Name())
		}
	}
}

func isServeMux(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "net/http" && obj.Name() == "ServeMux"
}

// referencedObject resolves the variable or field a mux expression names:
// the field object for s.mux, the var object for a local mux.
func referencedObject(info *types.Info, e ast.Expr) types.Object {
	switch v := e.(type) {
	case *ast.Ident:
		return info.Uses[v]
	case *ast.SelectorExpr:
		if s := info.Selections[v]; s != nil {
			return s.Obj()
		}
		return info.Uses[v.Sel]
	case *ast.ParenExpr:
		return referencedObject(info, v.X)
	}
	return nil
}

// markMuxObjects records every ServeMux-typed object referenced anywhere in
// the expression (handles obs.Middleware(s.mux, ...) as well as wrappers
// around the mux).
func markMuxObjects(info *types.Info, e ast.Expr, out map[types.Object]bool) {
	ast.Inspect(e, func(n ast.Node) bool {
		expr, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if tv, ok := info.Types[expr]; ok && isServeMux(tv.Type) {
			if obj := referencedObject(info, expr); obj != nil {
				out[obj] = true
			}
		}
		return true
	})
}

// --- metric names ---

// metricSink is one function whose string argument at argIndex is a metric
// family name; kind is "counter", "gauge", "histogram" or "any".
type metricSink struct {
	argIndex int
	kind     string
}

func checkMetricNames(p *Pass) {
	info := p.Pkg.Info
	sinks := make(map[types.Object]metricSink)

	// Seed with obs.Prom's methods from any imported obs package.
	for _, imp := range p.Pkg.Types.Imports() {
		if !strings.HasSuffix(imp.Path(), "internal/obs") {
			continue
		}
		if tn, ok := imp.Scope().Lookup("Prom").(*types.TypeName); ok {
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					switch m.Name() {
					case "Counter", "Gauge", "Histogram":
						sinks[m] = metricSink{argIndex: 0, kind: strings.ToLower(m.Name())}
					}
				}
			}
		}
	}
	if len(sinks) == 0 {
		return
	}

	// Fixpoint: package functions that forward a string parameter into a
	// sink's name slot become sinks too.
	paramIndex := func(fd *ast.FuncDecl, obj types.Object) int {
		idx := 0
		for _, field := range fd.Type.Params.List {
			for _, name := range field.Names {
				if info.Defs[name] == obj {
					return idx
				}
				idx++
			}
			if len(field.Names) == 0 {
				idx++
			}
		}
		return -1
	}
	for changed := true; changed; {
		changed = false
		for _, file := range p.Pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fObj := info.Defs[fd.Name]
				if fObj == nil {
					continue
				}
				if _, done := sinks[fObj]; done {
					continue
				}
				ast.Inspect(fd.Body, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callee := calleeOf(info, call)
					sink, isSink := sinks[callee]
					if !isSink || sink.argIndex >= len(call.Args) {
						return true
					}
					id, ok := call.Args[sink.argIndex].(*ast.Ident)
					if !ok {
						return true
					}
					pObj := info.Uses[id]
					if pObj == nil {
						return true
					}
					if idx := paramIndex(fd, pObj); idx >= 0 {
						sinks[fObj] = metricSink{argIndex: idx, kind: sink.kind}
						changed = true
					}
					return true
				})
			}
		}
	}

	// Validate every sink call site.
	for _, file := range p.Pkg.Files {
		walkStack(file, func(n ast.Node, stack []ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := calleeOf(info, call)
			sink, isSink := sinks[callee]
			if !isSink || sink.argIndex >= len(call.Args) {
				return true
			}
			arg := call.Args[sink.argIndex]
			tv := info.Types[arg]
			if tv.Value != nil && tv.Value.Kind() == constant.String {
				validateMetricName(p, arg.Pos(), constant.StringVal(tv.Value), sink.kind)
				return true
			}
			// Non-constant name: fine only if this call sits inside a
			// function that is itself a sink forwarding the same parameter
			// (its callers are checked instead).
			if id, ok := arg.(*ast.Ident); ok {
				if fn, ok := enclosingFunc(stack).(*ast.FuncDecl); ok && fn != nil {
					if fObj := info.Defs[fn.Name]; fObj != nil {
						if _, forwarded := sinks[fObj]; forwarded && info.Uses[id] != nil {
							return true
						}
					}
				}
			}
			p.Reportf(arg.Pos(), "metric name is not a compile-time constant: dynamic families break the bounded-cardinality guarantee of /metricsz")
			return true
		})
	}
}

func validateMetricName(p *Pass, pos token.Pos, name, kind string) {
	if !metricNameRe.MatchString(name) || strings.Contains(name, "__") {
		p.Reportf(pos, "metric name %q violates Prometheus naming rules (want ^[a-z][a-z0-9_]*$ without double underscores)", name)
		return
	}
	for _, reserved := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, reserved) {
			p.Reportf(pos, "metric name %q ends in reserved histogram suffix %q", name, reserved)
			return
		}
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			p.Reportf(pos, "counter %q must end in _total", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			p.Reportf(pos, "gauge %q must not end in _total (that suffix marks counters)", name)
		}
	case "histogram":
		for _, u := range histogramUnits {
			if strings.HasSuffix(name, u) {
				return
			}
		}
		p.Reportf(pos, "histogram %q must carry a unit suffix (one of %s)", name, strings.Join(histogramUnits, ", "))
	}
}
