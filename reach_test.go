package fpgadbg_test

// Dead-code guard: every function and method declared under internal/
// must be reachable from a binary (a main or init function of cmd/,
// examples/ or benchmark/), or be listed in keep with the reason it stays
// — a differential oracle a test runs against the product path, or a
// fixture several packages' tests share. Test-only API that is neither
// fails the test, so it cannot grow back into the product packages.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keep lists the internal functions no binary reaches that stay on
// purpose, keyed "pkg.Func" or "pkg.Type.Method" (pkg relative to
// internal/), each with its reason.
var keep = map[string]string{
	// Differential oracles: a slow, obviously correct path that a test
	// holds the product path to.
	"sim.CompileReference":            "oracle: reference interpreter vs the compiled program (sim TestRunTraceMatchesStepOnCatalog)",
	"sim.ReferenceMachine.Step":       "oracle: one reference-interpreter cycle (sim TestRunTraceMatchesStepOnCatalog)",
	"sim.ReferenceMachine.StateWords": "oracle: reference-interpreter flip-flop state (sim TestRunTraceMatchesStepOnCatalog)",
	"sim.ExhaustiveEquivalent":        "oracle: every-input equivalence of two combinational netlists (synth TestTechMapEquivalenceCombinational)",
	"testgen.ExhaustiveBlocks":        "oracle input: every input vector, for sim.ExhaustiveEquivalent (testgen TestExhaustiveCoversAll)",
	"sim.Machine.CaptureState":        "oracle: record per-cycle flip-flop state to hold against the reference (sim TestWideIdentityOnCatalog)",
	"sim.Trace.State":                 "oracle: recorded flip-flop state, word 0 (sim TestStateCaptureMatchesStateWords)",
	"sim.Trace.StateW":                "oracle: recorded flip-flop state, any lane word (sim TestWideIdentityOnCatalog)",
	"sim.Machine.ClearOverride":       "oracle: the window edge of a lane fault as an override (sim TestWindowedLaneFaultInsideHold)",
	"faults.SerialPairScan":           "oracle: clone+apply+recompile pair scan vs PairScan (faults TestPairScanMatchesSerialAcrossCatalog)",
	"faults.SerialWindowScan":         "oracle: serial windowed scan vs the lane engine (faults TestWindowedScanMatchesSerialAcrossCatalog)",
	"repair.Engine.SerialValidate":    "oracle: one-mutant-at-a-time validation vs lane validation (repair TestValidateMatchesSerial*, TestValidateConeMatchesFullAndSerial)",
	"repair.Engine.Validate":          "oracle: lane validation on raw stimulus (repair TestValidateMatchesSerial, TestBroadcastGuard)",
	"repair.Engine.Search":            "oracle: candidate search on raw stimulus (repair TestSearchOutcomesPinned*, TestBroadcastGuard)",
	"repair.Engine.Enumerate":         "oracle: candidate enumeration on raw stimulus (repair TestValidateMatchesSerial*, TestBroadcastGuard)",
	"repair.Engine.EnumerateRewires":  "oracle: rewire candidates of misrouted pins (repair TestEnumerateRewiresSkipsHealthy)",
	"repair.Engine.SearchRewires":     "oracle: serial rewire repair of wiring faults (repair TestSearchRewiresFixesMisroute, TestSearchRewiresFixesBridgeFault)",
	"core.VerifyLayout":               "oracle: from-scratch consistency of a layout after rollback (core TestProbeRoundsOnCatalog)",
	"core.Layout.FrozenOutside":       "oracle: placement and routing outside a changed region stay put (core TestFrozenOutsideInvariant)",
	"core.Layout.InvalidateRouter":    "oracle: fresh router vs the persistent one (core TestPersistentRouterMatchesScratch, TestProbeRoundsOnCatalog)",
	"core.Layout.FixedWiring":         "oracle: locked overlay trunk wiring a clone must inherit (overlay TestCloneInheritsTrunkWiring)",
	"route.RouteAll":                  "oracle: one-shot routing with a fresh Router (route TestQuickRandomNets, TestRouterChargeMatchesFixedUse)",
	"route.CheckRoutes":               "oracle: every route a connected tree within capacity (route TestQuickRandomNets)",
	"route.CheckTree":                 "oracle: one route a connected tree over its pins (route TestCheckTreeCatchesBadRoutes)",
	"route.UsageOf":                   "oracle: per-edge usage recounted from routes (route TestRouterChargeMatchesFixedUse)",

	// Test fixtures: helpers the tests of several packages share.
	"blif.ParseString":          "test fixture: BLIF text to netlist (blif, bench tests)",
	"blif.ToString":             "test fixture: netlist to BLIF text (blif, bench, place tests)",
	"logic.NandN":               "test fixture: NAND covers (logic, netlist, eco, synth tests)",
	"logic.MustFromStrings":     "test fixture: covers from cube strings (logic, synth, faults tests)",
	"logic.Cover.MustTT":        "test fixture: truth table of a narrow cover (repair, sim tests)",
	"testgen.Random":            "test fixture: name-keyed random stimulus (BenchmarkSimStep)",
	"faults.Batches":            "test fixture: the 64-lane default of BatchesN (faults TestBatches)",
	"store.NewMem":              "test fixture: in-memory journal (store, service tests)",
	"store.SegName":             "test fixture: segment file name for crash injection (service TestPersistCrashAtEveryRecordBoundary)",
	"store.RecordBoundaries":    "test fixture: record offsets for crash injection (service TestPersistCrashAtEveryRecordBoundary)",
	"obs.Trace.Spans":           "test fixture: closed span records (obs, repair, service tests)",
	"obs.StageTrace.Stage":      "test fixture: one stage of a stage trace (obs, service tests)",
	"overlay.Plan.Channel":      "test fixture: the channel of a tapped net (overlay, debug tests, BenchmarkProbeSwitch)",
	"overlay.Selector.Selected": "test fixture: the taps a selector holds (overlay, debug tests)",
	"service.Service.Cache":     "test fixture: the service's artifact cache (service TestUseDictCampaignSharesDictionary)",
	"service.Service.Registry":  "test fixture: the service's telemetry registry (service tests)",
	"service.layoutPool.stats":  "test fixture: layout pool counters (service TestLayoutPoolCheckoutRollback)",
	"service.Client.List":       "test fixture: daemon client call (service TestHTTPRoundTrip)",
	"service.Client.Trace":      "test fixture: daemon client call (service TestHTTPTraceEndpoint)",
	"service.Client.Cancel":     "test fixture: daemon client call (service TestHTTPCancelAndMetrics)",
}

// listedPackage is the part of `go list -json` the walk reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	Name       string
	GoFiles    []string
	Export     string
	Standard   bool
}

// goList runs `go list -deps -export -json` in dir over patterns.
func goList(t *testing.T, dir string, patterns ...string) []listedPackage {
	t.Helper()
	cmd := exec.Command("go", append([]string{"list", "-deps", "-export", "-json"}, patterns...)...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var pkgs []listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// moduleImporter type-checks module packages from source and reads the
// standard library from its export data.
type moduleImporter struct {
	fset    *token.FileSet
	listed  map[string]listedPackage
	checked map[string]*types.Package
	files   map[string][]*ast.File
	infos   map[string]*types.Info
	std     types.Importer
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.checked[path]; ok {
		return p, nil
	}
	lp, ok := m.listed[path]
	if !ok {
		return nil, fmt.Errorf("package %s not listed", path)
	}
	if lp.Standard {
		return m.std.Import(path)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, info)
	if err != nil {
		return nil, err
	}
	m.checked[path], m.files[path], m.infos[path] = pkg, files, info
	return pkg, nil
}

// declName is a declaration's key in keep: "pkg.Func" or "pkg.Type.Method".
func declName(fn *types.Func) string {
	name := fn.Pkg().Name() + "." + fn.Name()
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		name = fn.Pkg().Name() + "." + t.(*types.Named).Obj().Name() + "." + fn.Name()
	}
	return name
}

func TestEveryInternalFuncReachesABinary(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]listedPackage{}
	for _, p := range goList(t, root, "./...") {
		listed[p.ImportPath] = p
	}
	for _, p := range goList(t, filepath.Join(root, "benchmark"), ".") {
		listed[p.ImportPath] = p
	}
	fset := token.NewFileSet()
	m := &moduleImporter{
		fset: fset, listed: listed,
		checked: map[string]*types.Package{},
		files:   map[string][]*ast.File{},
		infos:   map[string]*types.Info{},
	}
	m.std = importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(listed[path].Export)
	})

	// Binaries: main packages under cmd/, examples/ and benchmark/.
	var mains []string
	for path, p := range listed {
		if p.Name == "main" && !p.Standard &&
			(strings.HasPrefix(path, "fpgadbg/cmd/") || strings.HasPrefix(path, "fpgadbg/examples/") || path == "fpgadbg/benchmark") {
			mains = append(mains, path)
		}
	}
	sort.Strings(mains)
	if len(mains) == 0 {
		t.Fatal("no binaries found")
	}
	for _, path := range mains {
		if _, err := m.Import(path); err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
	}

	// Index every declaration of the type-checked module packages.
	type body struct {
		node ast.Node
		info *types.Info
	}
	decls := map[*types.Func]body{}
	var roots []body
	for path, files := range m.files {
		info := m.infos[path]
		for _, f := range files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn := info.Defs[d.Name].(*types.Func)
					decls[fn] = body{d, info}
					if d.Recv == nil && (d.Name.Name == "init" || d.Name.Name == "main" && m.checked[path].Name() == "main") {
						roots = append(roots, body{d, info})
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						// Package-level initializers run at init.
						if vs, ok := s.(*ast.ValueSpec); ok && len(vs.Values) > 0 {
							roots = append(roots, body{vs, info})
						}
					}
				}
			}
		}
	}

	// A method whose receiver implements an interface in scope that
	// declares it may be called through that interface (heap.Push, a
	// fmt.Stringer, gob's BinaryMarshaler), so it is a root too.
	ifaces := interfacesInScope(m)
	for fn, b := range decls {
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			continue
		}
		typ := recv.Type()
		if p, ok := typ.(*types.Pointer); ok {
			typ = p.Elem()
		}
		for _, iface := range ifaces[fn.Name()] {
			if types.Implements(typ, iface) || types.Implements(types.NewPointer(typ), iface) {
				roots = append(roots, b)
				break
			}
		}
	}

	// reach marks every function a body in queue names, transitively.
	reach := func(queue []body, marked map[*types.Func]bool) {
		for len(queue) > 0 {
			b := queue[len(queue)-1]
			queue = queue[:len(queue)-1]
			ast.Inspect(b.node, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok {
					return true
				}
				if fn, ok := b.info.Uses[id].(*types.Func); ok {
					fn = fn.Origin()
					if d, ok := decls[fn]; ok && !marked[fn] {
						marked[fn] = true
						queue = append(queue, d)
					}
				}
				return true
			})
		}
	}
	live := map[*types.Func]bool{}
	for _, b := range roots {
		if d, ok := b.node.(*ast.FuncDecl); ok {
			live[b.info.Defs[d.Name].(*types.Func)] = true
		}
	}
	reach(roots, live)

	// What the kept oracles and fixtures call stays with them.
	kept := map[*types.Func]bool{}
	var keptRoots []body
	declared := map[string]bool{}
	for fn, b := range decls {
		if !strings.HasPrefix(fn.Pkg().Path(), "fpgadbg/internal/") {
			continue
		}
		name := declName(fn)
		declared[name] = true
		if _, ok := keep[name]; !ok {
			continue
		}
		if live[fn] {
			t.Errorf("%s is reached from a binary; drop it from keep", name)
		}
		kept[fn] = true
		keptRoots = append(keptRoots, b)
	}
	reach(keptRoots, kept)
	for name := range keep {
		if !declared[name] {
			t.Errorf("keep lists %s, which no internal package declares", name)
		}
	}

	var dead []string
	for fn, b := range decls {
		if live[fn] || kept[fn] || !strings.HasPrefix(fn.Pkg().Path(), "fpgadbg/internal/") {
			continue
		}
		pos, end := fset.Position(b.node.Pos()), fset.Position(b.node.End())
		rel, _ := filepath.Rel(root, pos.Filename)
		dead = append(dead, fmt.Sprintf("%s:%d: %s (%d lines)", rel, pos.Line, declName(fn), end.Line-pos.Line+1))
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d internal function(s) reached by no binary and not kept as an oracle or fixture:\n%s",
			len(dead), strings.Join(dead, "\n"))
	}
}

// interfacesInScope collects every interface the module packages declare
// or use, and every interface named by the standard packages they import
// transitively (heap.Interface, fmt.Stringer, encoding.BinaryMarshaler,
// ...), indexed by method name.
func interfacesInScope(m *moduleImporter) map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	add := func(t types.Type) {
		iface, ok := t.Underlying().(*types.Interface)
		if !ok {
			return
		}
		for i := 0; i < iface.NumMethods(); i++ {
			name := iface.Method(i).Name()
			out[name] = append(out[name], iface)
		}
	}
	visited := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for path, info := range m.infos {
		visit(m.checked[path])
		for _, tv := range info.Types {
			if tv.Type != nil {
				add(tv.Type)
			}
		}
	}
	return out
}
