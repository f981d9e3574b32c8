package kddcache

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// docRef is a backticked span that opens with pkg.Ident or
// internal/pkg.Ident: the package, the exported identifier and, when the
// span goes on with .Sel, the selector.
var docRef = regexp.MustCompile("^(?:internal/)?([a-z][a-z0-9]*)\\.([A-Z][A-Za-z0-9_]*)(?:\\.([A-Za-z_][A-Za-z0-9_]*))?")

// pkgDecls is what a package declares: its top-level names, its method
// names, and per type the names a selector on it can reach (methods,
// fields, interface methods, and the embedded types it promotes from).
type pkgDecls struct {
	top     map[string]bool
	methods map[string]bool
	members map[string]map[string]bool
	embeds  map[string][]string // same-package embedded types
	foreign map[string]bool     // types embedding another package's type
}

// parsePkg reads every Go file of dir, test files included.
func parsePkg(t *testing.T, dir string) *pkgDecls {
	t.Helper()
	d := &pkgDecls{top: map[string]bool{}, methods: map[string]bool{}, members: map[string]map[string]bool{},
		embeds: map[string][]string{}, foreign: map[string]bool{}}
	member := func(typ, name string) {
		if d.members[typ] == nil {
			d.members[typ] = map[string]bool{}
		}
		d.members[typ][name] = true
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, path := range files {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				if decl.Recv == nil {
					d.top[decl.Name.Name] = true
					continue
				}
				d.methods[decl.Name.Name] = true
				if typ := recvType(decl.Recv.List[0].Type); typ != "" {
					member(typ, decl.Name.Name)
				}
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					switch spec := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range spec.Names {
							d.top[n.Name] = true
						}
					case *ast.TypeSpec:
						typ := spec.Name.Name
						d.top[typ] = true
						if d.members[typ] == nil {
							d.members[typ] = map[string]bool{} // marks typ a type
						}
						var fields *ast.FieldList
						switch u := spec.Type.(type) {
						case *ast.StructType:
							fields = u.Fields
						case *ast.InterfaceType:
							fields = u.Methods
						}
						if fields == nil {
							continue
						}
						for _, fl := range fields.List {
							for _, n := range fl.Names {
								member(typ, n.Name)
							}
							if len(fl.Names) > 0 {
								continue
							}
							switch e := recvType(fl.Type); {
							case e != "":
								member(typ, e)
								d.embeds[typ] = append(d.embeds[typ], e)
							default:
								d.foreign[typ] = true
							}
						}
					}
				}
			}
		}
	}
	return d
}

// recvType names the same-package type of a receiver or an embedded
// field (T, *T, T[P]); "" for another package's type.
func recvType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// resolves reports whether sel is reachable on typ, through promotion
// from embedded types too; a type embedding another package's type may
// promote anything, so it resolves every selector.
func (d *pkgDecls) resolves(typ, sel string, seen map[string]bool) bool {
	if seen[typ] {
		return false
	}
	seen[typ] = true
	if d.members[typ][sel] || d.foreign[typ] {
		return true
	}
	for _, e := range d.embeds[typ] {
		if d.resolves(e, sel, seen) {
			return true
		}
	}
	return false
}

// TestDocsNameRealCode holds the prose to the code: every backticked
// `pkg.Ident` in the top-level docs, where pkg is the root package or one
// under internal/, must name a declaration or a method of that package,
// and a `pkg.Type.Sel` a method, field or interface method Type reaches.
// A deleted name is written without its package qualifier.
// Spans inside fenced code blocks are not checked.
func TestDocsNameRealCode(t *testing.T) {
	dirs := map[string]string{"kddcache": "."}
	entries, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() {
			dirs[e.Name()] = filepath.Join("internal", e.Name())
		}
	}
	pkgs := map[string]*pkgDecls{}
	for _, doc := range []string{"DESIGN.md", "README.md", "EXPERIMENTS.md"} {
		f, err := os.Open(doc)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		sc.Buffer(nil, 1<<20)
		fenced := false
		for line := 1; sc.Scan(); line++ {
			text := sc.Text()
			if strings.HasPrefix(strings.TrimSpace(text), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			spans := strings.Split(text, "`")
			for i := 1; i < len(spans)-1; i += 2 {
				m := docRef.FindStringSubmatch(spans[i])
				if m == nil || dirs[m[1]] == "" {
					continue
				}
				if pkgs[m[1]] == nil {
					pkgs[m[1]] = parsePkg(t, dirs[m[1]])
				}
				d := pkgs[m[1]]
				switch {
				case !d.top[m[2]] && !d.methods[m[2]]:
					t.Errorf("%s:%d: `%s`: %s declares no %s", doc, line, spans[i], m[1], m[2])
				case m[3] != "" && d.members[m[2]] != nil && !d.resolves(m[2], m[3], map[string]bool{}):
					t.Errorf("%s:%d: `%s`: %s.%s has no %s", doc, line, spans[i], m[1], m[2], m[3])
				}
			}
		}
		f.Close()
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}
}
