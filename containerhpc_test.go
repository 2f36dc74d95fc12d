package containerhpc

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

func TestClustersPresets(t *testing.T) {
	cls := Clusters()
	if len(cls) != 4 {
		t.Fatalf("%d clusters", len(cls))
	}
	names := map[string]bool{}
	for _, c := range cls {
		if err := c.Validate(); err != nil {
			t.Errorf("%s: %v", c.Name, err)
		}
		names[c.Name] = true
	}
	for _, want := range []string{"Lenox", "MareNostrum4", "CTE-POWER", "ThunderX"} {
		if !names[want] {
			t.Errorf("missing cluster %s", want)
		}
		if _, err := ClusterByName(want); err != nil {
			t.Errorf("ClusterByName(%s): %v", want, err)
		}
	}
	// The named constructors are the same four machines, in order.
	for i, c := range []*Cluster{Lenox(), MareNostrum4(), CTEPower(), ThunderX()} {
		if c.Name != cls[i].Name {
			t.Errorf("constructor %d builds %s, Clusters()[%d] is %s", i, c.Name, i, cls[i].Name)
		}
	}
}

func TestPublicRunCell(t *testing.T) {
	cl := Lenox()
	rt := NewSingularity()
	img, err := BuildImage(rt, cl, SystemSpecific)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCell(Cell{
		Cluster: cl, Runtime: rt, Image: img,
		Case:  QuickCFD(3),
		Nodes: 2, Ranks: 8, Threads: 1,
		Mode: ModeReal,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Exec.TimePerStep <= 0 {
		t.Fatalf("time/step %v", res.Exec.TimePerStep)
	}
	if res.Exec.AvgCGIters <= 1 {
		t.Fatalf("CG iterations %v", res.Exec.AvgCGIters)
	}
}

func TestPublicRuntimes(t *testing.T) {
	if len(Runtimes()) != 4 {
		t.Fatal("expected four runtimes")
	}
	for i, rt := range []Runtime{NewBareMetal(), NewDocker(), NewSingularity(), NewShifter()} {
		if rt.Name() != Runtimes()[i].Name() {
			t.Errorf("constructor %d builds %s, Runtimes()[%d] is %s", i, rt.Name(), i, Runtimes()[i].Name())
		}
	}
	for _, name := range []string{"Bare-metal", "Docker", "Singularity", "Shifter"} {
		rt, err := RuntimeByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if rt.Name() != name {
			t.Fatalf("runtime %q", rt.Name())
		}
	}
}

// TestPublicBuildKinds builds an image with each of the paper's two
// techniques through the facade.
func TestPublicBuildKinds(t *testing.T) {
	for _, kind := range []BuildKind{SystemSpecific, SelfContained} {
		img, err := BuildImage(NewSingularity(), Lenox(), kind)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if img.Kind != kind {
			t.Errorf("built a %v image, asked for %v", img.Kind, kind)
		}
	}
}

func TestPublicCases(t *testing.T) {
	for _, cs := range []Case{
		ArteryCFDLenox(), ArteryCFDCTEPower(), ArteryFSIMareNostrum4(),
		QuickCFD(2), QuickFSI(2),
	} {
		if err := cs.Validate(); err != nil {
			t.Errorf("%s: %v", cs.Name, err)
		}
	}
}

func TestPublicPortability(t *testing.T) {
	res, err := Portability(Options{})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Render(&sb)
	if !strings.Contains(sb.String(), "exec format error") {
		t.Fatal("portability matrix incomplete")
	}
}

func TestPublicSolutions(t *testing.T) {
	res, err := Solutions(Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("%d solution rows", len(res.Rows))
	}
}

// TestPublicScenario drives a custom declarative study through the
// facade alone: parse a spec, run it with the standard Options, and
// read the rendered output — the external user's whole workflow.
func TestPublicScenario(t *testing.T) {
	spec := `{
	  "name": "demo",
	  "cluster": "Lenox",
	  "case": {"name": "quick-cfd"},
	  "configs": [
	    {"runtime": "Bare-metal"},
	    {"runtime": "Singularity"}
	  ],
	  "grid": {"nodes": [1, 2], "ranks_per_node": 4},
	  "report": {"columns": [{"kind": "time"}, {"kind": "speedup", "baseline": "Bare-metal"}]}
	}`
	st, err := ParseScenario(strings.NewReader(spec), "demo.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Cells()) != 4 {
		t.Fatalf("%d cells", len(st.Cells()))
	}
	res, err := st.Run(Options{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	res.Render(&sb)
	for _, want := range []string{"demo", "Bare-metal [s]", "Singularity speedup"} {
		if !strings.Contains(sb.String(), want) {
			t.Errorf("render missing %q:\n%s", want, sb.String())
		}
	}

	// Validation errors are typed and name the field.
	_, err = ParseScenario(strings.NewReader(`{"name":"x","cluster":"nope","case":{"name":"quick-cfd"},"configs":[{"runtime":"Bare-metal"}],"grid":{"nodes":[1]}}`), "bad.json")
	var fe *ScenarioFieldError
	if !errors.As(err, &fe) || fe.Path != "cluster" {
		t.Fatalf("want *ScenarioFieldError at cluster, got %v", err)
	}
}

// TestFacadeExportsAreUsed keeps the facade minimal: every exported
// identifier of containerhpc.go must be referenced by a program under
// examples/, a `containerhpc.<Name>` mention in README.md, or the root
// package's own tests. A re-export with no such caller is a layer
// nobody needs — in-module callers (cmd/) import internal/ directly.
func TestFacadeExportsAreUsed(t *testing.T) {
	fset := token.NewFileSet()
	parse := func(path string) *ast.File {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		return f
	}

	used := map[string]bool{}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range regexp.MustCompile(`containerhpc\.([A-Z]\w*)`).FindAllSubmatch(readme, -1) {
		used[string(m[1])] = true
	}
	// Examples qualify the facade by its package name; the root tests
	// live inside the package and name identifiers bare.
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		ast.Inspect(parse(path), func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if pkg, ok := sel.X.(*ast.Ident); ok && pkg.Name == "containerhpc" {
					used[sel.Sel.Name] = true
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	tests, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	// Field names (x.Store, Options{Store: …}) are not references to the
	// facade's identifiers, so selectors and literal keys are skipped.
	var bare func(n ast.Node) bool
	bare = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			used[n.Name] = true
		case *ast.SelectorExpr:
			ast.Inspect(n.X, bare)
			return false
		case *ast.KeyValueExpr:
			if _, field := n.Key.(*ast.Ident); field {
				ast.Inspect(n.Value, bare)
				return false
			}
		}
		return true
	}
	for _, path := range tests {
		ast.Inspect(parse(path), bare)
	}

	var unused []string
	for _, decl := range parse("containerhpc.go").Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() && !used[d.Name.Name] {
				unused = append(unused, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				var names []*ast.Ident
				switch sp := spec.(type) {
				case *ast.TypeSpec:
					names = []*ast.Ident{sp.Name}
				case *ast.ValueSpec:
					names = sp.Names
				}
				for _, id := range names {
					if id.IsExported() && !used[id.Name] {
						unused = append(unused, id.Name)
					}
				}
			}
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Fatalf("%d facade exports have no caller in examples/, README.md or the root tests — delete them (in-module code imports internal/ directly):\n  %s",
			len(unused), strings.Join(unused, "\n  "))
	}
}

// internalAllow lists the exported functions and methods under internal/
// that no non-test file references and that stay anyway, each with the
// reason. Everything else TestInternalExportsAreReferenced finds is
// dead surface: delete it with the tests that exercise only it.
var internalAllow = map[string]string{
	"experiments.GridResult.SeriesByLabel":     "accessor the figure-shape tests read results through",
	"experiments.IOStudyResult.Find":           "accessor the figure-shape tests read results through",
	"experiments.PortabilityResult.Find":       "accessor the figure-shape tests read results through",
	"experiments.SolutionsResult.RowByRuntime": "accessor the figure-shape tests read results through",
	"krylov.JacobiPrecond":                     "fixture: the preconditioner CG's tests solve with",
	"linalg.NewCSR":                            "fixture: CG's tests build their matrices with it (krylov.CSROperator)",
	"linalg.CSR.Diag":                          "fixture: feeds JacobiPrecond in CG's tests",
	"linalg.CSR.IsSymmetric":                   "oracle: CG's tests check their matrix is one CG may solve",
	"linalg.CSR.NNZ":                           "accessor the CSR construction tests read",
	"linalg.Norm2":                             "oracle: true residuals in CG's tests",
	"registry.Client.FetchWorkStatus":          "accessor the coordinator and hardening tests read lease state through",
	"telemetry.FleetJournal.Drops":             "accessor the journal tests read the drop count through",
	"vtime.Resource.BusyTime":                  "accessor the Resource tests read occupancy through",
	"vtime.Resource.FreeAt":                    "accessor the Resource tests read occupancy through",
}

// TestInternalExportsAreReferenced keeps internal/ to the code some
// program runs: every exported function or method declared in a
// non-test file of an internal package (internal/lint and the
// test-only registry/chaostest harness aside) must be named by some
// non-test file of the module — other than by its own declaration — or
// carry a reason in internalAllow. The match is by identifier, so it
// errs towards keeping; what it flags has no caller at all.
func TestInternalExportsAreReferenced(t *testing.T) {
	type decl struct {
		key  string
		name *ast.Ident
	}
	var decls []decl
	declared := map[*ast.Ident]bool{}
	var files []*ast.File
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); path != "." && (name[0] == '.' || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
		pkg := filepath.ToSlash(filepath.Dir(path))
		if !strings.HasPrefix(pkg, "internal/") || strings.HasPrefix(pkg, "internal/lint") || pkg == "internal/registry/chaostest" {
			return nil
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() {
				continue
			}
			key := strings.TrimPrefix(pkg, "internal/") + "."
			if fn.Recv != nil {
				recv := fn.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				typ, ok := recv.(*ast.Ident)
				if !ok || !typ.IsExported() {
					continue
				}
				key += typ.Name + "."
			}
			decls = append(decls, decl{key + fn.Name.Name, fn.Name})
			declared[fn.Name] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
	}

	var dead []string
	kept := map[string]bool{}
	for _, d := range decls {
		switch _, allowed := internalAllow[d.key]; {
		case used[d.name.Name] && allowed:
			t.Errorf("internalAllow[%q] is stale: the name has a non-test reference", d.key)
		case allowed:
			kept[d.key] = true
		case !used[d.name.Name]:
			dead = append(dead, d.key)
		}
	}
	for key := range internalAllow {
		if !kept[key] {
			t.Errorf("internalAllow[%q] matches no unreferenced declaration", key)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Fatalf("%d exported functions under internal/ have no non-test reference — delete them with the tests that exercise only them, or give the reason in internalAllow:\n  %s",
			len(dead), strings.Join(dead, "\n  "))
	}
}
