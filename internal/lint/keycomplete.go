package lint

// KeyComplete enforces content-key completeness: every option that can change
// a pass output must be folded into its content key, or two different
// compilations silently alias one cache entry.
//
// A key-mirror struct declares what it mirrors with a directive comment:
//
//	//lint:keymap Options
//	type storeKeyMap struct {
//		Strategy OrderStrategy // orderOpts
//		...
//	}
//
// The analyzer then checks, field for field:
//
//   - every field of the target struct appears in the mirror with the same
//     name and identical type — a new Options knob without a mirror entry is
//     reported BY NAME, so the diagnostic tells the author exactly which
//     field needs a key decision;
//   - every mirror field has a counterpart in the target (no stale mirrors);
//   - every mirror field carries a comment documenting which content key
//     carries it (or why it is deliberately key-exempt).
//
// This replaces the old `var _ = keyMap(Options{})` struct-conversion
// guards: the conversion only failed on type-shape drift and could not name
// the missing field, and it forced the mirror to stay conversion-compatible
// (same field order) even when a clearer grouping existed.

import (
	"go/ast"
	"go/types"
	"strings"
)

var KeyComplete = &Analyzer{
	Name:      "keycomplete",
	Doc:       "key-mirror structs (//lint:keymap T) cover every field of their target, with documented fields",
	RunModule: runKeyComplete,
}

func runKeyComplete(pass *ModulePass) {
	for _, pkg := range pass.ScopePackages() {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				gd, ok := decl.(*ast.GenDecl)
				if !ok {
					continue
				}
				for _, spec := range gd.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					target, pos, ok := keymapDirective(gd, ts)
					if !ok {
						continue
					}
					checkKeymap(pass, pkg, ts, target, pos)
				}
			}
		}
	}
}

// keymapDirective extracts "//lint:keymap <Target>" from the type's doc
// comment (on the spec or its enclosing declaration).
func keymapDirective(gd *ast.GenDecl, ts *ast.TypeSpec) (string, ast.Node, bool) {
	for _, cg := range []*ast.CommentGroup{ts.Doc, gd.Doc} {
		if cg == nil {
			continue
		}
		for _, c := range cg.List {
			rest, ok := strings.CutPrefix(c.Text, "//lint:keymap")
			if !ok {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) != 1 {
				return "", c, true // malformed: caught by empty target below
			}
			return fields[0], c, true
		}
	}
	return "", nil, false
}

func checkKeymap(pass *ModulePass, pkg *Package, ts *ast.TypeSpec, target string, pos ast.Node) {
	mirrorName := ts.Name.Name
	if target == "" {
		pass.Reportf(pos.Pos(), "malformed keymap directive on %s: want //lint:keymap <TargetType>", mirrorName)
		return
	}
	mirrorStruct, ok := ts.Type.(*ast.StructType)
	if !ok {
		pass.Reportf(ts.Pos(), "keymap directive on %s, which is not a struct type", mirrorName)
		return
	}
	tObj := pkg.Types.Scope().Lookup(target)
	if tObj == nil {
		pass.Reportf(pos.Pos(), "keymap target %s is not declared in package %s", target, pkg.Types.Name())
		return
	}
	targetStruct, ok := tObj.Type().Underlying().(*types.Struct)
	if !ok {
		pass.Reportf(pos.Pos(), "keymap target %s is not a struct type", target)
		return
	}

	mirrorFields := make(map[string]*types.Var)
	mObj := pkg.Types.Scope().Lookup(mirrorName)
	if mObj == nil {
		return
	}
	mStruct, ok := mObj.Type().Underlying().(*types.Struct)
	if !ok {
		return
	}
	for i := 0; i < mStruct.NumFields(); i++ {
		f := mStruct.Field(i)
		mirrorFields[f.Name()] = f
	}

	// Target -> mirror: completeness, the whole point.
	targetFields := make(map[string]*types.Var)
	for i := 0; i < targetStruct.NumFields(); i++ {
		f := targetStruct.Field(i)
		targetFields[f.Name()] = f
		mf, ok := mirrorFields[f.Name()]
		if !ok {
			pass.Reportf(ts.Pos(),
				"%s field %s (%s) is not mirrored by %s: decide which content key carries it and add a documented mirror field",
				target, f.Name(), f.Type(), mirrorName)
			continue
		}
		if !types.Identical(f.Type(), mf.Type()) {
			pass.Reportf(ts.Pos(),
				"%s field %s has type %s but %s mirrors it as %s; the mirror must track the real type",
				target, f.Name(), f.Type(), mirrorName, mf.Type())
		}
	}

	// Mirror -> target: no stale mirror fields, and every field documented.
	for _, field := range mirrorStruct.Fields.List {
		documented := field.Doc != nil || field.Comment != nil
		for _, name := range field.Names {
			if _, ok := targetFields[name.Name]; !ok {
				pass.Reportf(name.Pos(),
					"%s field %s has no counterpart in %s; remove the stale mirror entry",
					mirrorName, name.Name, target)
			}
			if !documented {
				// Reported at the struct head: the comment requirement is the
				// mirror's contract, and the message names the field.
				pass.Reportf(ts.Pos(),
					"%s field %s needs a comment naming the content key that carries it",
					mirrorName, name.Name)
			}
		}
	}
}
