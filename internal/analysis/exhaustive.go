package analysis

import (
	"go/ast"
	"go/types"
)

// AnalyzerExhaustive enforces the accounting surface of the layer
// abstraction: every concrete type in the module that implements nn.Layer
// must be handled by opcount.LayerOps's type switch, so the paper's
// ops-per-input metric and the 45 nm energy accounting stay total over the
// layer set. The compiler already checks the rest of the surface
// (ForwardBatch is a method of nn.Layer); a layer missing from the op
// switch compiles and passes unit tests, and panics only when it is first
// costed — exactly the kind of sampled-only invariant this suite exists to
// pin at build time.
var AnalyzerExhaustive = &Analyzer{
	Name:      "exhaustive",
	Doc:       "nn.Layer implementations missing opcount coverage",
	RunModule: runExhaustive,
}

func runExhaustive(p *Pass) {
	nnPkg := p.Mod.Lookup("internal/nn")
	if nnPkg == nil || nnPkg.Types == nil {
		return
	}
	layerIface := lookupInterface(nnPkg.Types, "Layer")
	opcountCases := opcountSwitchTypes(p.Mod)
	if layerIface == nil || opcountCases == nil {
		return
	}

	for _, pkg := range p.All {
		if pkg.Types == nil {
			continue
		}
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			T := tn.Type()
			if types.IsInterface(T) {
				continue
			}
			if !types.Implements(T, layerIface) && !types.Implements(types.NewPointer(T), layerIface) {
				continue
			}
			if !opcountCases[tn] {
				p.Reportf(tn.Pos(), "%s implements nn.Layer but is not handled in opcount.LayerOps: ops/energy accounting panics the first time this layer is costed (add a case)", tn.Name())
			}
		}
	}
}

func lookupInterface(pkg *types.Package, name string) *types.Interface {
	tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
	if !ok {
		return nil
	}
	iface, ok := tn.Type().Underlying().(*types.Interface)
	if !ok {
		return nil
	}
	return iface
}

// opcountSwitchTypes collects the concrete layer types named by the type
// switch inside opcount.LayerOps; nil when the package or function is
// absent (the check is then skipped).
func opcountSwitchTypes(mod *Module) map[*types.TypeName]bool {
	pkg := mod.Lookup("internal/opcount")
	if pkg == nil {
		return nil
	}
	var fn *ast.FuncDecl
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Name.Name == "LayerOps" && fd.Recv == nil {
				fn = fd
			}
		}
	}
	if fn == nil || fn.Body == nil {
		return nil
	}
	cases := make(map[*types.TypeName]bool)
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		sw, ok := n.(*ast.TypeSwitchStmt)
		if !ok {
			return true
		}
		for _, stmt := range sw.Body.List {
			cc, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, expr := range cc.List {
				tv, ok := pkg.Info.Types[expr]
				if !ok {
					continue
				}
				t := tv.Type
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if named, ok := t.(*types.Named); ok {
					cases[named.Obj()] = true
				}
			}
		}
		return true
	})
	return cases
}
