package lint

import (
	"go/ast"
	"strings"
)

// CacheWriteAnalyzer guards the aliasing contract of the caches: entries
// handed out by core.StructuralCache (shared across candidates) and by an
// island's private fitness-memo LRU are seen by every future reader of
// that cache, so mutating a field of a value obtained from a cache
// lookup poisons warm starts for the rest of the run (nothing crashes,
// sibling candidates just silently converge from a corrupted baseline).
// The pass tracks, per function, identifiers bound from cache-accessor
// calls (methods named lookup/get/Lookup/Get on receivers whose name
// mentions cache/store/memo/structural/lru, plus the structural
// session's warmNormal/warmCritical) and flags any assignment through
// them. Mutate a deep copy instead (Individual.cloneFor is the
// sanctioned escape for fitness entries).
var CacheWriteAnalyzer = &Analyzer{
	Name: "cachewrite",
	Doc: "forbid writes to fields of values obtained from cache lookups " +
		"(StructuralCache / fitness-memo LRU); cached entries are immutable " +
		"after insertion — deep-copy before mutating",
	Run: runCacheWrite,
}

// cachePackages are the packages owning (or holding references into)
// the shared caches.
var cachePackages = []string{
	"internal/core",
	"internal/dse",
}

var cacheAccessorNames = map[string]bool{
	"lookup":       true,
	"Lookup":       true,
	"get":          true,
	"Get":          true,
	"warmNormal":   true,
	"warmCritical": true,
}

func runCacheWrite(pass *Pass) {
	applies := false
	for _, suffix := range cachePackages {
		if pathHasSuffix(pass.PkgPath, suffix) {
			applies = true
			break
		}
	}
	if !applies {
		return
	}
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCacheWrites(pass, fd)
		}
	}
}

// isCacheAccessorCall matches recv.get(...) / recv.lookup(...) style
// calls where the receiver chain textually names a cache.
func isCacheAccessorCall(e ast.Expr) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !cacheAccessorNames[sel.Sel.Name] {
		return false
	}
	return mentionsCache(sel.X)
}

// mentionsCache reports whether any identifier in the receiver chain
// names a cache-like thing.
func mentionsCache(e ast.Expr) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		low := strings.ToLower(id.Name)
		for _, kw := range [...]string{"cache", "store", "memo", "structural", "lru"} {
			if strings.Contains(low, kw) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// checkCacheWrites walks one function in source order, tracking idents
// bound from cache accessors and reporting writes through them.
func checkCacheWrites(pass *Pass, fd *ast.FuncDecl) {
	tracked := map[string]bool{}

	reportWrite := func(lhs ast.Expr) {
		// Only writes *through* the value (x.F = ..., x.F[i] = ...,
		// *x = ...) are poisonous; rebinding x itself is handled by the
		// caller.
		switch lhs.(type) {
		case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		default:
			return
		}
		id := rootIdent(lhs)
		if id == nil || !tracked[id.Name] {
			return
		}
		pass.Reportf(lhs.Pos(),
			"write through %q, which aliases a cached entry; cached values are immutable after insertion — mutate a deep copy (see Individual.cloneFor)", id.Name)
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch v := n.(type) {
		case *ast.AssignStmt:
			fromCache := len(v.Rhs) == 1 && isCacheAccessorCall(v.Rhs[0])
			for _, lhs := range v.Lhs {
				reportWrite(lhs)
			}
			// Rebinds: x = <anything> changes what x aliases.
			for i, lhs := range v.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				if fromCache && i == 0 {
					// First variable of x := cache.get(...) (the second
					// is the ok bool of the comma-ok form).
					tracked[id.Name] = true
				} else if tracked[id.Name] {
					delete(tracked, id.Name)
				}
			}
		case *ast.IncDecStmt:
			reportWrite(v.X)
		}
		return true
	})
}
