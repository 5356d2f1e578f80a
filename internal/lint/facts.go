package lint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"sort"
	"time"

	"soleil/internal/model"
	"soleil/internal/validate"
)

// ArchFacts is the fused model the whole-architecture passes
// (SA05–SA08) analyze: the ADL architecture and optional deployment
// descriptor on one side, and on the other the typed AST of every
// implementation the loaded packages register for a content class the
// architecture declares. Where the per-function passes see one
// package at a time, ArchFacts sees the composed system — bindings
// with their protocols and contracts, node assignments, and the
// port-use, locking and cost structure of the code behind each
// component.
type ArchFacts struct {
	Arch   *model.Architecture
	Deploy *model.Deployment
	// Assign maps component name -> node name when a deployment
	// descriptor was supplied; empty otherwise.
	Assign map[string]string
	// Fset is the file set shared by every package of one load.
	Fset *token.FileSet
	Pkgs []*Package
	// Impls maps content class -> the implementations registered for
	// it. One class may be implemented by several packages (the repo
	// carries both examples/factory and internal/scenario variants of
	// the paper's classes); each is analyzed independently.
	Impls map[string][]*Impl
	// Eng is the interprocedural summary engine over the loaded
	// packages, built on first use (EnsureEngine).
	Eng *Engine
	// LinkPenalty is the per-hop latency charged by SA09 for a binding
	// whose endpoints are assigned to different nodes; priced from
	// BENCH_cluster.json when available, else (when 0) the pricing
	// core's default.
	LinkPenalty time.Duration

	// pricing is the binding timing model SA09 and SA10 share, built
	// on first use (Pricing).
	pricing *validate.Pricing

	// supp indexes the //soleil:ignore directives of every loaded
	// package, keyed by filename.
	supp map[*Package]*suppressionIndex
}

// EnsureEngine builds the summary engine over the facts' packages if
// it has not been built yet. factsDir, when non-empty, enables the
// on-disk cache; stats, when non-nil, receives the cache counters.
func (f *ArchFacts) EnsureEngine(factsDir string, stats *CacheStats) {
	if f.Eng == nil {
		f.Eng = NewEngine(f.Pkgs, f.suppIndex, factsDir)
	}
	if stats != nil {
		*stats = f.Eng.Stats()
	}
}

// Pricing returns the architecture's timing model (RTA, capacities,
// drain rule, admitted rates, link penalty), built once per facts.
func (f *ArchFacts) Pricing() *validate.Pricing {
	if f.pricing == nil {
		f.pricing = validate.NewPricing(f.Arch, f.Assign, f.LinkPenalty)
	}
	return f.pricing
}

// An Impl is one registered implementation of a content class: the
// named Go type a Register call (or a map[string]Content registration
// table) binds to the class, with its method syntax and the port-use
// facts discovered from the code.
type Impl struct {
	Class  string
	Pkg    *Package
	Named  *types.Named
	RegPos token.Pos
	// Methods maps method name -> declaration for methods declared on
	// the named type (any receiver form) in its package.
	Methods map[string]*ast.FuncDecl
	// Entries are the membrane entry points: Invoke and, when
	// declared, Activate.
	Entries []*ast.FuncDecl
	// Reach maps every same-package function reachable from an entry
	// to the entry's display name.
	Reach map[*ast.FuncDecl]string
	// PortUses are the Call/Send invocations on ports obtained with
	// Port("name"), discovered in reachable code.
	PortUses []PortUse

	decls map[*types.Func]*ast.FuncDecl
}

// A PortUse is one Call or Send on a client interface, discovered
// either as a chained svc.Port("x").Call(...) or through a local
// variable assigned from Port("x").
type PortUse struct {
	// Interface is the client interface name passed to Port.
	Interface string
	// Sync is true for Call (the caller blocks for the reply), false
	// for Send.
	Sync bool
	Pos  token.Pos
	In   *ast.FuncDecl
	Call *ast.CallExpr
}

// BuildArchFacts fuses the architecture (and optional deployment)
// with the loaded packages. Every package must come from one Load
// call (they share a FileSet); registrations of classes the
// architecture does not declare are ignored — they belong to other
// systems sharing the module.
func BuildArchFacts(arch *model.Architecture, dep *model.Deployment, pkgs []*Package) (*ArchFacts, error) {
	if arch == nil {
		return nil, fmt.Errorf("lint: the whole-architecture passes need an architecture (-adl)")
	}
	facts := &ArchFacts{
		Arch:   arch,
		Deploy: dep,
		Assign: map[string]string{},
		Impls:  map[string][]*Impl{},
		Pkgs:   pkgs,
		supp:   map[*Package]*suppressionIndex{},
	}
	if len(pkgs) > 0 {
		facts.Fset = pkgs[0].Fset
		for _, p := range pkgs {
			if p.Fset != facts.Fset {
				return nil, fmt.Errorf("lint: packages for one ArchFacts must share a FileSet (load them together)")
			}
		}
	}
	if dep != nil {
		assign, err := dep.Resolve(arch)
		if err != nil {
			return nil, err
		}
		facts.Assign = assign
	}

	declared := map[string]bool{}
	for _, c := range arch.Components() {
		if c.Content() != "" {
			declared[c.Content()] = true
		}
	}
	for _, pkg := range pkgs {
		for _, reg := range packageRegistrations(pkg) {
			if !declared[reg.class] || reg.typ == nil {
				continue
			}
			facts.Impls[reg.class] = append(facts.Impls[reg.class], buildImpl(pkg, reg))
		}
	}
	return facts, nil
}

// ImplsOf returns the implementations registered for the named
// component's content class.
func (f *ArchFacts) ImplsOf(component string) []*Impl {
	c, ok := f.Arch.Component(component)
	if !ok || c.Content() == "" {
		return nil
	}
	return f.Impls[c.Content()]
}

// Classes returns the registered content classes in sorted order.
func (f *ArchFacts) Classes() []string {
	out := make([]string, 0, len(f.Impls))
	for c := range f.Impls {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// Anchor returns a fallback position for findings that have no code
// to point at: the package clause of the first loaded file.
func (f *ArchFacts) Anchor() token.Pos {
	for _, p := range f.Pkgs {
		if len(p.Files) > 0 {
			return p.Files[0].Name.Pos()
		}
	}
	return token.NoPos
}

// packageRegistrations collects the class -> implementation pairs a
// package establishes. Two shapes are recognized: the constant-string
// Register("class", factory) call (the assembly.Registry protocol,
// shared with SA04), and — because the blessed examples register
// through a loop — map[string]Content composite literals whose keys
// are the class names and whose values are the content instances.
func packageRegistrations(pkg *Package) []registration {
	out := findRegistrations(pkg.Files, pkg.Info)
	if !hasRegisterCall(pkg.Files) {
		return out
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := pkg.Info.TypeOf(lit)
			if t == nil || !isContentMap(t) {
				return true
			}
			for _, el := range lit.Elts {
				kv, ok := el.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				tv, ok := pkg.Info.Types[kv.Key]
				if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
					continue
				}
				out = append(out, registration{
					class: constant.StringVal(tv.Value),
					pos:   kv.Key.Pos(),
					typ:   namedOf(pkg.Info.TypeOf(kv.Value)),
				})
			}
			return true
		})
	}
	return out
}

// isContentMap reports whether t is a map[string]C where C is a named
// interface called Content — the membrane.Content registration-table
// shape, matched by name so the facade alias and test doubles
// participate too.
func isContentMap(t types.Type) bool {
	m, ok := t.Underlying().(*types.Map)
	if !ok {
		return false
	}
	if b, ok := m.Key().Underlying().(*types.Basic); !ok || b.Kind() != types.String {
		return false
	}
	named, ok := types.Unalias(m.Elem()).(*types.Named)
	return ok && named.Obj().Name() == "Content" && types.IsInterface(named)
}

func hasRegisterCall(files []*ast.File) bool {
	found := false
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			switch fun := ast.Unparen(call.Fun).(type) {
			case *ast.Ident:
				found = found || fun.Name == "Register"
			case *ast.SelectorExpr:
				found = found || fun.Sel.Name == "Register"
			}
			return true
		})
		if found {
			return true
		}
	}
	return false
}

func buildImpl(pkg *Package, reg registration) *Impl {
	impl := &Impl{
		Class:   reg.class,
		Pkg:     pkg,
		Named:   reg.typ,
		RegPos:  reg.pos,
		Methods: map[string]*ast.FuncDecl{},
		decls:   declFuncsOf(pkg.Files, pkg.Info),
	}
	for obj, decl := range impl.decls {
		if decl.Recv == nil {
			continue
		}
		recv := obj.Type().(*types.Signature).Recv()
		if recv == nil || namedOf(recv.Type()) != reg.typ {
			continue
		}
		impl.Methods[obj.Name()] = decl
	}
	for _, name := range []string{"Invoke", "Activate"} {
		if m, ok := impl.Methods[name]; ok {
			impl.Entries = append(impl.Entries, m)
		}
	}
	impl.Reach = reachableFuncs(pkg.Info, impl.decls, impl.Entries)
	impl.PortUses = findPortUses(pkg, impl)
	return impl
}

// findPortUses discovers Call/Send invocations on ports in the code
// reachable from the implementation's entries. Two shapes: the
// chained svc.Port("x").Call(env, op, arg), and a port variable bound
// by `p, err := svc.Port("x")` anywhere in the package and invoked
// later. Ports stashed in struct fields are not tracked — the blessed
// idiom resolves ports per call so rebinding takes effect.
func findPortUses(pkg *Package, impl *Impl) []PortUse {
	portVars := map[types.Object]string{}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 || len(as.Lhs) == 0 {
				return true
			}
			call, ok := ast.Unparen(as.Rhs[0]).(*ast.CallExpr)
			if !ok {
				return true
			}
			iface, ok := portCallInterface(pkg.Info, call)
			if !ok {
				return true
			}
			id, ok := as.Lhs[0].(*ast.Ident)
			if !ok {
				return true
			}
			if obj := pkg.Info.Defs[id]; obj != nil {
				portVars[obj] = iface
			} else if obj := pkg.Info.Uses[id]; obj != nil {
				portVars[obj] = iface
			}
			return true
		})
	}

	var uses []PortUse
	decls := sortedDecls(impl.Reach)
	for _, fn := range decls {
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || (sel.Sel.Name != "Call" && sel.Sel.Name != "Send") {
				return true
			}
			var iface string
			switch x := ast.Unparen(sel.X).(type) {
			case *ast.CallExpr:
				iface, _ = portCallInterface(pkg.Info, x)
			case *ast.Ident:
				iface = portVars[pkg.Info.Uses[x]]
			}
			if iface == "" {
				return true
			}
			uses = append(uses, PortUse{
				Interface: iface,
				Sync:      sel.Sel.Name == "Call",
				Pos:       call.Pos(),
				In:        fn,
				Call:      call,
			})
			return true
		})
	}
	return uses
}

// portCallInterface matches a call of the shape Port("iName") —
// any method or function named Port whose first argument is a
// constant string — and returns the interface name.
func portCallInterface(info *types.Info, call *ast.CallExpr) (string, bool) {
	var name string
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		name = fun.Name
	case *ast.SelectorExpr:
		name = fun.Sel.Name
	}
	if name != "Port" || len(call.Args) < 1 {
		return "", false
	}
	tv, ok := info.Types[call.Args[0]]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}

// UsesInterface reports whether any port use of the implementation
// targets the named client interface, returning the first use.
func (im *Impl) UsesInterface(name string) (PortUse, bool) {
	for _, pu := range im.PortUses {
		if pu.Interface == name {
			return pu, true
		}
	}
	return PortUse{}, false
}

// sortedDecls orders the reachable declarations by source position so
// the passes report deterministically.
func sortedDecls(reach map[*ast.FuncDecl]string) []*ast.FuncDecl {
	out := make([]*ast.FuncDecl, 0, len(reach))
	for fn := range reach {
		out = append(out, fn)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}
