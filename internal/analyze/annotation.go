package analyze

import (
	"go/ast"
	"go/token"
	"slices"
	"strings"
)

// Annotation grammar. An annotation is a line comment of the form
//
//	//selfstab:<verb>            (verbs that need no justification)
//	//selfstab:<verb> <reason>   (verbs that must say why)
//
// with no space between `//` and `selfstab:`. The verbs, and where
// each may appear:
//
//	hotpath        doc comment of a function — the function must stay
//	               free of obvious allocation sites (checked by the
//	               hotpath analyzer)
//	orderinvariant on or directly above a `for range` over a map —
//	               declares the loop order-independent; reason required
//	mutator        doc comment of a method — read by journalchoke:
//	               calling this method changes the world trajectory and
//	               must happen under the journal (obspure also walks the
//	               step path from it)
//	unjournaled    doc comment of a method of the journaled world type —
//	               declares it deliberately outside the op journal, and
//	               exempts its call subtree from the chokepoint walk;
//	               reason required
//	cache          doc or trailing comment of a struct field — stores
//	               to it are derived-state cache fills, not world
//	               mutations
//	testref        doc comment of a function, or doc or trailing comment
//	               of a type, const or var spec (an ungrouped declaration's
//	               doc comment counts) — an exported internal/ or root
//	               name kept although only tests reference it, because
//	               a test contract compares against it (checked by
//	               testonly); reason required
//
// Run scans each package once. A malformed annotation (unknown verb,
// missing reason, stray space, wrong placement) is a diagnostic, never a
// silent no-op: an annotation that doesn't parse is an invariant that
// silently stopped being enforced, which is exactly the failure mode
// this suite exists to prevent.

const annPrefix = "//selfstab:"

// reasonRequired lists the verbs whose annotations must justify
// themselves inline.
var reasonRequired = map[string]bool{
	"orderinvariant": true,
	"unjournaled":    true,
	"testref":        true,
}

// verbPlacement names where each verb is allowed to appear.
var verbPlacement = map[string]string{
	"hotpath":        "function doc comment",
	"mutator":        "method doc comment",
	"unjournaled":    "method doc comment",
	"orderinvariant": "on or directly above a range statement",
	"cache":          "struct field doc or trailing comment",
	"testref":        "function doc comment or type, const or var spec",
}

// annotation is one parsed //selfstab: comment.
type annotation struct {
	verb   string
	pos    token.Pos
	placed bool // consumed by a legal attachment point
}

// annotations indexes a package's parsed annotations by attachment
// point.
type annotations struct {
	funcs  map[*ast.FuncDecl]map[string]*annotation
	fields map[*ast.Field]map[string]*annotation
	specs  map[ast.Spec]map[string]*annotation
	// ranges holds the range statements an orderinvariant annotation
	// covers: trailing on the same line or on the line directly above.
	ranges map[*ast.RangeStmt]bool
}

// fn returns the verb annotation attached to decl's doc comment, or nil.
func (a *annotations) fn(decl *ast.FuncDecl, verb string) *annotation {
	return a.funcs[decl][verb]
}

// field returns the verb annotation attached to a struct field, or nil.
func (a *annotations) field(f *ast.Field, verb string) *annotation {
	return a.fields[f][verb]
}

// spec returns the verb annotation attached to a type, const or var
// spec, or nil.
func (a *annotations) spec(s ast.Spec, verb string) *annotation {
	return a.specs[s][verb]
}

// scanAnnotations parses every //selfstab: comment in pkg's files,
// reports malformed or misplaced ones through pass, and returns the
// well-formed ones indexed by attachment point.
func scanAnnotations(pass *Pass, pkg *Package) *annotations {
	anns := &annotations{
		funcs:  make(map[*ast.FuncDecl]map[string]*annotation),
		fields: make(map[*ast.Field]map[string]*annotation),
		specs:  make(map[ast.Spec]map[string]*annotation),
		ranges: make(map[*ast.RangeStmt]bool),
	}
	var parsed []*annotation
	lines := make(map[string]map[int]*annotation) // by file name and line
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if a := parseAnnotation(pass, c); a != nil {
					parsed = append(parsed, a)
					p := pass.Fset.Position(a.pos)
					if lines[p.Filename] == nil {
						lines[p.Filename] = make(map[int]*annotation)
					}
					lines[p.Filename][p.Line] = a
				}
			}
		}
	}
	if len(parsed) == 0 {
		return anns
	}

	// Attach doc-comment annotations to their functions, fields and specs.
	byPos := make(map[token.Pos]*annotation, len(parsed))
	for _, a := range parsed {
		byPos[a.pos] = a
	}
	// attach claims every annotation in docs whose verb is one of verbs,
	// and returns them by verb (nil when there are none).
	attach := func(verbs []string, docs ...*ast.CommentGroup) map[string]*annotation {
		var claimed map[string]*annotation
		for _, doc := range docs {
			if doc == nil {
				continue
			}
			for _, c := range doc.List {
				if a := byPos[c.Slash]; a != nil && slices.Contains(verbs, a.verb) {
					if claimed == nil {
						claimed = make(map[string]*annotation)
					}
					claimed[a.verb] = a
					a.placed = true
				}
			}
		}
		return claimed
	}
	for _, f := range pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				anns.funcs[n] = attach([]string{"hotpath", "mutator", "unjournaled", "testref"}, n.Doc)
			case *ast.Field:
				anns.fields[n] = attach([]string{"cache"}, n.Doc, n.Comment)
			case *ast.GenDecl:
				for _, s := range n.Specs {
					var docs []*ast.CommentGroup
					switch s := s.(type) {
					case *ast.TypeSpec:
						docs = []*ast.CommentGroup{s.Doc, s.Comment}
					case *ast.ValueSpec:
						docs = []*ast.CommentGroup{s.Doc, s.Comment}
					default:
						continue
					}
					if !n.Lparen.IsValid() {
						docs = append(docs, n.Doc) // an ungrouped declaration's doc is its spec's
					}
					anns.specs[s] = attach([]string{"testref"}, docs...)
				}
			case *ast.RangeStmt:
				// An orderinvariant annotation on or directly above a
				// range statement is placed, whether or not the range is
				// over a map.
				p := pass.Fset.Position(n.Pos())
				for _, l := range []int{p.Line, p.Line - 1} {
					if a := lines[p.Filename][l]; a != nil && a.verb == "orderinvariant" {
						a.placed = true
						anns.ranges[n] = true
					}
				}
			}
			return true
		})
	}
	for _, a := range parsed {
		if !a.placed {
			pass.Reportf(a.pos, "misplaced //selfstab:%s annotation: it must appear in the %s it governs", a.verb, verbPlacement[a.verb])
		}
	}
	return anns
}

// parseAnnotation parses one comment. It returns the annotation if well
// formed, nil otherwise (reporting the malformation), and nil silently
// for comments that are not selfstab annotations at all.
func parseAnnotation(pass *Pass, c *ast.Comment) *annotation {
	text := c.Text
	if !strings.HasPrefix(text, "//") {
		// Block comment: only worth flagging if it plainly tries to be
		// an annotation.
		if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(text, "/*")), "selfstab:") {
			pass.Reportf(c.Slash, "malformed selfstab annotation: use a line comment (//selfstab:...), not a block comment")
		}
		return nil
	}
	body := text[2:]
	if !strings.Contains(body, "selfstab:") {
		return nil
	}
	if !strings.HasPrefix(body, "selfstab:") {
		// Mentions of "selfstab:" deeper in prose are fine; a comment
		// that is only whitespace away from the annotation form is a
		// typo that would silently disable enforcement.
		if strings.HasPrefix(strings.TrimLeft(body, " \t"), "selfstab:") {
			pass.Reportf(c.Slash, "malformed selfstab annotation: no space allowed between // and selfstab:")
		}
		return nil
	}
	rest := strings.TrimPrefix(body, "selfstab:")
	verb := rest
	reason := ""
	if i := strings.IndexAny(rest, " \t"); i >= 0 {
		verb, reason = rest[:i], strings.TrimSpace(rest[i+1:])
	}
	if verb == "" {
		pass.Reportf(c.Slash, "malformed selfstab annotation: missing verb after selfstab:")
		return nil
	}
	if _, ok := verbPlacement[verb]; !ok {
		pass.Reportf(c.Slash, "malformed selfstab annotation: unknown verb %q (known: cache, hotpath, mutator, orderinvariant, testref, unjournaled)", verb)
		return nil
	}
	if reasonRequired[verb] && reason == "" {
		pass.Reportf(c.Slash, "malformed selfstab annotation: //selfstab:%s requires a reason (//selfstab:%s <why>)", verb, verb)
		return nil
	}
	return &annotation{verb: verb, pos: c.Slash}
}
