package core

import (
	"errors"
	"math/rand"
	"strings"
	"testing"

	"dixq/internal/engine"
	"dixq/internal/index"
	"dixq/internal/interp"
	"dixq/internal/interval"
	"dixq/internal/plan"
	"dixq/internal/stats"
	"dixq/internal/update"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

func figureCatalog() (Catalog, interp.Catalog) {
	doc := xmark.Figure1Forest()
	return EncodeCatalog(map[string]xmltree.Forest{"auction.xml": doc}),
		interp.Catalog{"auction.xml": doc}
}

func generatedCatalog(sf float64, seed int64) (Catalog, interp.Catalog) {
	doc := xmark.Generate(xmark.Config{ScaleFactor: sf, Seed: seed})
	return EncodeCatalog(map[string]xmltree.Forest{"auction.xml": doc}),
		interp.Catalog{"auction.xml": doc}
}

// runBoth evaluates a query in both plan modes and checks that the result
// relations are identical tuple-for-tuple (not merely equal after
// decoding) — the modes must differ only algorithmically.
func runBoth(t *testing.T, query string, cat Catalog) xmltree.Forest {
	t.Helper()
	e, err := xq.Parse(query)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	q := Compile(e, Options{})
	msjStats := &Stats{}
	msjRel, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, Stats: msjStats})
	if err != nil {
		t.Fatalf("MSJ eval: %v", err)
	}
	nljRel, err := q.Eval(cat, Options{ForceJoinMode: ModeNLJ})
	if err != nil {
		t.Fatalf("NLJ eval: %v", err)
	}
	if len(msjRel.Tuples) != len(nljRel.Tuples) {
		t.Fatalf("MSJ %d tuples, NLJ %d tuples", len(msjRel.Tuples), len(nljRel.Tuples))
	}
	for i := range msjRel.Tuples {
		a, b := msjRel.Tuples[i], nljRel.Tuples[i]
		if a.S != b.S || !a.L.Equal(b.L) || !a.R.Equal(b.R) {
			t.Fatalf("tuple %d differs: MSJ %s, NLJ %s", i, a, b)
		}
	}
	f, err := q.EvalForest(cat, Options{ForceJoinMode: ModeMSJ})
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return f
}

func TestQ8BothModesOnFigure1(t *testing.T) {
	cat, _ := figureCatalog()
	f := runBoth(t, xmark.Q8, cat)
	if got := f.String(); got != `<item person="Cong Rosca">1</item>` {
		t.Errorf("Q8 = %s", got)
	}
}

func TestQ8UsesMergeJoinInMSJMode(t *testing.T) {
	cat, _ := figureCatalog()
	e := xq.MustParse(xmark.Q8)
	q := Compile(e, Options{})
	stats := &Stats{}
	if _, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, Stats: stats}); err != nil {
		t.Fatal(err)
	}
	if stats.MergeJoins != 1 {
		t.Errorf("MergeJoins = %d, want 1", stats.MergeJoins)
	}
	// The outer person loop stays a (non-join) nested loop.
	if stats.NestedLoops != 1 {
		t.Errorf("NestedLoops = %d, want 1", stats.NestedLoops)
	}

	nlj := &Stats{}
	if _, err := q.Eval(cat, Options{ForceJoinMode: ModeNLJ, Stats: nlj}); err != nil {
		t.Fatal(err)
	}
	if nlj.MergeJoins != 0 || nlj.NestedLoops != 2 {
		t.Errorf("NLJ stats = %+v", nlj)
	}
	if nlj.EmbeddedTuples <= stats.EmbeddedTuples {
		t.Errorf("NLJ embedded %d tuples, MSJ %d — NLJ should embed more",
			nlj.EmbeddedTuples, stats.EmbeddedTuples)
	}
}

func TestQ9UsesTwoMergeJoins(t *testing.T) {
	cat, _ := generatedCatalog(0.001, 3)
	e := xq.MustParse(xmark.Q9)
	q := Compile(e, Options{})
	stats := &Stats{}
	if _, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, Stats: stats}); err != nil {
		t.Fatal(err)
	}
	if stats.MergeJoins != 2 {
		t.Errorf("MergeJoins = %d, want 2 (buyer join and item join)", stats.MergeJoins)
	}
}

// The benchmark-queries-vs-interpreter differential moved to
// internal/difftest (TestEnginesAgreeOnCorpus runs Q8/Q9/Q13 against the
// interpreter over the same generated document, among every other
// variant).

func TestQ13OnGenerated(t *testing.T) {
	cat, icat := generatedCatalog(0.001, 5)
	got := runBoth(t, xmark.Q13, cat)
	want, err := interp.Run(xmark.Q13, icat)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || !got.Equal(want) {
		t.Errorf("Q13 mismatch: got %d trees, want %d", len(got), len(want))
	}
	for _, item := range got {
		if item.Label != "<item>" || item.Children[0].Label != "@name" {
			t.Fatalf("Q13 result tree malformed: %s", item.String())
		}
	}
}

// TestDifferentialRandomQueries runs random core expressions through the
// interpreter and both DI plan modes; all three must agree.
func TestDifferentialRandomQueries(t *testing.T) {
	const trials = 400
	rng := rand.New(rand.NewSource(20030609)) // SIGMOD 2003 :-)
	docNames := []string{"d1", "d2"}
	for trial := 0; trial < trials; trial++ {
		docs := map[string]xmltree.Forest{}
		for _, n := range docNames {
			docs[n] = xmltree.RandomForest(rng, 10)
		}
		cat := EncodeCatalog(docs)
		icat := interp.Catalog(docs)
		e := xq.RandomExpr(rng, docNames, 4)
		want, err := interp.Eval(e, nil, icat)
		if err != nil {
			t.Fatalf("trial %d: interp error on %s: %v", trial, e, err)
		}
		for _, mode := range []Mode{ModeMSJ, ModeNLJ} {
			q := Compile(e, Options{})
			got, err := q.EvalForest(cat, Options{ForceJoinMode: mode})
			if err != nil {
				t.Fatalf("trial %d (%s): eval error on %s: %v", trial, mode, e, err)
			}
			if !got.Equal(want) {
				t.Fatalf("trial %d (%s): mismatch on %s\n got %s\nwant %s",
					trial, mode, e, got.String(), want.String())
			}
		}
		// The literal translation (no rewrites, no streaming fusion) must
		// agree too.
		q := Compile(e, Options{NoRewrites: true})
		got, err := q.EvalForest(cat, Options{ForceJoinMode: ModeNLJ, NoPipeline: true})
		if err != nil {
			t.Fatalf("trial %d (literal): %v", trial, err)
		}
		if !got.Equal(want) {
			t.Fatalf("trial %d (literal): mismatch on %s", trial, e)
		}
	}
}

func TestRewritesPreserveQ8Shape(t *testing.T) {
	e := xq.MustParse(xmark.Q8)
	r := Compile(e, Options{}).Expr
	// Hoisting must produce top-level lets for the two document paths,
	// dedupated to... Q8 uses two distinct paths (persons, auctions).
	l1, ok := r.(xq.Let)
	if !ok {
		t.Fatalf("rewritten Q8 top = %T, want Let", r)
	}
	if _, ok := l1.Body.(xq.Let); !ok {
		t.Fatalf("rewritten Q8 should hoist two paths, second level = %T", l1.Body)
	}
}

func TestHoistDeduplicates(t *testing.T) {
	e := xq.MustParse(`for $x in document("d")/a return for $y in document("d")/a return ($x, $y)`)
	r := HoistInvariants(e)
	lets := 0
	for {
		l, ok := r.(xq.Let)
		if !ok {
			break
		}
		lets++
		r = l.Body
	}
	if lets != 1 {
		t.Errorf("hoisted %d lets, want 1 (identical paths shared)", lets)
	}
}

// hoistDoc is a small nested document for the code-motion tests: every
// path the cases below navigate exists, so a misplaced binding changes the
// answer rather than hiding behind an empty one.
const hoistDoc = `<a><b><c><d><h>1</h></d><g>2</g></c><f>3</f><k>x</k></b>` +
	`<b><k>y</k><c><g>4</g></c></b><e>5</e><k>x</k><c>6</c><name>n</name><z>7</z></a>`

// TestHoistPlacement pins where loop-invariant code motion binds each
// expression: around the innermost for at the level of its deepest free
// variable, never above a where whose body it sits in, and inside the
// scope of every variable it uses. Each rewrite must also evaluate to the
// interpreter's answer on the original expression.
func TestHoistPlacement(t *testing.T) {
	doc, err := xmltree.Parse(hoistDoc)
	if err != nil {
		t.Fatal(err)
	}
	cat := EncodeCatalog(map[string]xmltree.Forest{"d": doc})
	icat := interp.Catalog{"d": doc}
	cases := []struct {
		name, query, want string
	}{
		{
			// $w, $x and $y live at levels 1, 2 and 3; each path binds
			// around the loop one level deeper than its variable.
			"levels 1-3",
			`for $w in document("d")/a return for $x in $w/b return for $y in $x/c return for $z in $y/d return ($z/h, $y/g, $x/f, $w/e)`,
			`let $#hoist1 := select("<a>", document("d")) return for $w in $#hoist1 return ` +
				`let $#hoist4 := select("<e>", children($w)) return for $x in select("<b>", children($w)) return ` +
				`let $#hoist3 := select("<f>", children($x)) return for $y in select("<c>", children($x)) return ` +
				`let $#hoist2 := select("<g>", children($y)) return for $z in select("<d>", children($y)) return ` +
				`concat(concat(concat(select("<h>", children($z)), $#hoist2), $#hoist3), $#hoist4)`,
		},
		{
			// Text-equal expressions with one home share a binding; the
			// same text around another loop gets its own.
			"sharing",
			`for $x in document("d")/a return (for $y in $x/b where $y/k = $x/k or $y/c = $x/k return ($x/c, $y, $x/c), for $z in $x/e return $x/c)`,
			`let $#hoist1 := select("<a>", document("d")) return for $x in $#hoist1 return concat(` +
				`let $#hoist2 := data(select("<k>", children($x))) return for $y in select("<b>", children($x)) return ` +
				`where ((data(select("<k>", children($y))) = $#hoist2) or (data(select("<c>", children($y))) = $#hoist2)) return ` +
				`concat(concat(select("<c>", children($x)), $y), select("<c>", children($x))), ` +
				`let $#hoist3 := select("<c>", children($x)) return for $z in select("<e>", children($x)) return $#hoist3)`,
		},
		{
			// A top-level let variable is level 0 but not a document: its
			// paths bind inside the let's scope, around the loop.
			"top-level let",
			`let $v := document("d")/a return for $x in $v/b return ($v/c, $x)`,
			`let $#hoist1 := select("<a>", document("d")) return let $v := $#hoist1 return ` +
				`let $#hoist2 := select("<c>", children($v)) return for $x in select("<b>", children($v)) return concat($#hoist2, $x)`,
		},
		{
			// A positional variable has its for variable's level.
			"at variable",
			`for $x at $i in document("d")/a/b return for $y in $x/c return ($i + 1, $y)`,
			`let $#hoist1 := select("<b>", children(select("<a>", document("d")))) return for $x at $i in $#hoist1 return ` +
				`let $#hoist2 := (data($i) + const(1)) return for $y in select("<c>", children($x)) return concat($#hoist2, $y)`,
		},
		{
			// The inner $x shadows the outer one, so $x/c depends on the
			// inner loop and stays inside it.
			"shadowing",
			`for $x in document("d")/a return for $x in $x/b return $x/c`,
			`let $#hoist1 := select("<a>", document("d")) return for $x in $#hoist1 return ` +
				`for $x in select("<b>", children($x)) return select("<c>", children($x))`,
		},
		{
			// The condition's outer key is lifted; the where body's
			// $x/name stays, since there it runs only for the matches.
			// Document paths are bound once for the whole query wherever
			// they occur.
			"where body",
			`for $x in document("d")/a return for $y in $x/b where $y/k = $x/k return ($x/name, document("d")/z)`,
			`let $#hoist1 := select("<a>", document("d")) return let $#hoist3 := select("<z>", document("d")) return ` +
				`for $x in $#hoist1 return let $#hoist2 := data(select("<k>", children($x))) return ` +
				`for $y in select("<b>", children($x)) return where (data(select("<k>", children($y))) = $#hoist2) return ` +
				`concat(select("<name>", children($x)), $#hoist3)`,
		},
		{
			// A loop inside a where body still gets its invariants bound
			// around it, below the where.
			"loop in where body",
			`for $x in document("d")/a where $x/k return for $y in $x/b return ($x/c, $y)`,
			`let $#hoist1 := select("<a>", document("d")) return for $x in $#hoist1 return ` +
				`where not(empty(select("<k>", children($x)))) return ` +
				`let $#hoist2 := select("<c>", children($x)) return for $y in select("<b>", children($x)) return concat($#hoist2, $y)`,
		},
		{
			// Inside a document-only top binding, documents count as level
			// 0: the loops there bind their own invariants, and a path that
			// moves out of the inner loop moves again out of the outer one.
			"inside a top binding",
			`<r>{for $x in document("d")/a return for $y in $x/b return ($x/c, document("d")/a/k)}</r>`,
			`let $#hoist3 := let $#hoist1 := select("<k>", children(select("<a>", document("d")))) return ` +
				`for $x in select("<a>", document("d")) return ` +
				`let $#hoist2 := concat(select("<c>", children($x)), $#hoist1) return ` +
				`for $y in select("<b>", children($x)) return $#hoist2 return node("<r>", $#hoist3)`,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e := xq.MustParse(c.query)
			q := Compile(e, Options{})
			if got := HoistInvariants(e).String(); got != c.want {
				t.Errorf("rewrite\n got %s\nwant %s", got, c.want)
			}
			literal := Compile(e, Options{NoRewrites: true})
			if literal.Expr.String() != e.String() {
				t.Errorf("NoRewrites changed the expression: %s", literal.Expr)
			}
			want, err := interp.Eval(e, nil, icat)
			if err != nil {
				t.Fatal(err)
			}
			if len(want) == 0 {
				t.Fatal("degenerate case (empty result)")
			}
			for _, mode := range []Mode{ModeMSJ, ModeNLJ} {
				got, err := q.EvalForest(cat, Options{ForceJoinMode: mode})
				if err != nil {
					t.Fatalf("%s: %v", mode, err)
				}
				if !got.Equal(want) {
					t.Errorf("%s: got %s, want %s", mode, got.String(), want.String())
				}
			}
		})
	}
}

// TestRewritesMatchLiteralOnXMark is the rewrite oracle over the whole
// suite: the rewritten and the literal (NoRewrites) compilation of every
// XMark query give equal forests under both forced join modes and the
// cost-based optimizer, with statistics and indexes attached. It also
// checks the plan shapes the code motion exists for: Q11/Q12 no longer
// embed the person subtree into the auction loop, and Q8/Q9 keep their
// merge joins and the optimizer's join-algorithm decisions.
func TestRewritesMatchLiteralOnXMark(t *testing.T) {
	cat, _ := generatedCatalog(0.001, 20030609)
	st, ix := stats.CollectSet(cat), index.BuildSet(cat)
	modes := []Mode{ModeMSJ, ModeNLJ, ModeAuto}
	wantMSJ := map[string]map[Mode]int{
		"Q8": {ModeMSJ: 1, ModeNLJ: 0, ModeAuto: 1},
		"Q9": {ModeMSJ: 2, ModeNLJ: 0, ModeAuto: 2},
	}
	wantDecisions := map[string]string{
		"Q8": "$t=merge-join",
		"Q9": "$t=merge-join $t2=merge-join",
	}
	// embedsPerson reports whether a plan copies $p from depth 1 into a
	// depth-2 environment.
	embedsPerson := func(p *plan.Node) bool {
		found := false
		plan.Walk(p, func(n *plan.Node) {
			if n.Op == plan.OpEmbedOuter && n.Label == "p" && n.FromDepth == 1 && n.Depth == 2 {
				found = true
			}
		})
		return found
	}
	for _, xqq := range xmark.All {
		e := xq.MustParse(xqq.Text)
		rewritten, literal := Compile(e, Options{}), Compile(e, Options{NoRewrites: true})
		for _, mode := range modes {
			opts := Options{ForceJoinMode: mode, DocStats: st, Indexes: ix}
			want, err := literal.EvalForest(cat, opts)
			if err != nil {
				t.Fatalf("%s %s literal: %v", xqq.Name, mode, err)
			}
			got, err := rewritten.EvalForest(cat, opts)
			if err != nil {
				t.Fatalf("%s %s rewritten: %v", xqq.Name, mode, err)
			}
			if !got.Equal(want) {
				t.Errorf("%s %s: rewritten plan disagrees with the literal one:\n got %s\nwant %s",
					xqq.Name, mode, got.String(), want.String())
			}
			switch xqq.Name {
			case "Q11", "Q12":
				if embedsPerson(rewritten.Plan(opts)) {
					t.Errorf("%s %s: rewritten plan still embeds $p into depth 2", xqq.Name, mode)
				}
				if mode == ModeNLJ && !embedsPerson(literal.Plan(opts)) {
					t.Errorf("%s: the literal plan should embed $p into depth 2 (check is vacuous)", xqq.Name)
				}
			case "Q8", "Q9":
				msj := 0
				plan.Walk(rewritten.Plan(opts), func(n *plan.Node) {
					if n.Op == plan.OpMSJ {
						msj++
					}
				})
				if msj != wantMSJ[xqq.Name][mode] {
					t.Errorf("%s %s: %d merge joins, want %d", xqq.Name, mode, msj, wantMSJ[xqq.Name][mode])
				}
				if mode != ModeAuto {
					continue
				}
				var ds []string
				for _, d := range rewritten.OptReport(opts).Decisions {
					if d.Kind == "join-algorithm" {
						ds = append(ds, d.Loop+"="+d.Choice)
					}
				}
				if got := strings.Join(ds, " "); got != wantDecisions[xqq.Name] {
					t.Errorf("%s: join decisions %q, want %q", xqq.Name, got, wantDecisions[xqq.Name])
				}
			}
		}
	}
}

func TestPullUpThroughLet(t *testing.T) {
	e := xq.MustParse(`for $x in document("d")/a return
		for $y in document("d")/b
		let $z := $y/c
		where $x = $y and $z
		return $z`)
	r := PullUpJoinPredicates(e)
	inner := r.(xq.For).Body.(xq.For)
	w, ok := inner.Body.(xq.Where)
	if !ok {
		t.Fatalf("inner body = %T, want Where (pulled-up predicate)", inner.Body)
	}
	if _, ok := w.Cond.(xq.Equal); !ok {
		t.Fatalf("pulled-up cond = %T, want Equal", w.Cond)
	}
	if _, ok := w.Body.(xq.Let); !ok {
		t.Fatalf("let should remain under the pulled-up where, got %T", w.Body)
	}
}

func TestBudgetAbortsNLJ(t *testing.T) {
	cat, _ := generatedCatalog(0.01, 1)
	e := xq.MustParse(xmark.Q8)
	q := Compile(e, Options{})
	_, err := q.Eval(cat, Options{ForceJoinMode: ModeNLJ, MaxTuples: 10_000})
	if !errors.Is(err, engine.ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget exceeded", err)
	}
	// MSJ evaluates the same query within the same budget.
	if _, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, MaxTuples: 10_000}); err != nil {
		t.Fatalf("MSJ within budget failed: %v", err)
	}
}

func TestEvalErrors(t *testing.T) {
	cat, _ := figureCatalog()
	bad := map[string]xq.Expr{
		"unbound var":      xq.Var{Name: "nope"},
		"unknown doc":      xq.Doc{Name: "missing"},
		"unknown fn":       xq.Call{Fn: "bogus"},
		"unknown under or": xq.Where{Cond: xq.Or{L: xq.Empty{E: xq.Var{Name: "nope"}}, R: xq.Empty{E: xq.Const{}}}, Body: xq.Const{}},
	}
	for name, e := range bad {
		for _, mode := range []Mode{ModeMSJ, ModeNLJ} {
			if _, err := Compile(e, Options{}).Eval(cat, Options{ForceJoinMode: mode}); err == nil {
				t.Errorf("%s (%s): expected error", name, mode)
			}
		}
	}
}

func TestStatsPhases(t *testing.T) {
	cat, _ := generatedCatalog(0.002, 8)
	e := xq.MustParse(xmark.Q8)
	q := Compile(e, Options{})
	stats := &Stats{}
	if _, err := q.EvalForest(cat, Options{ForceJoinMode: ModeMSJ, Stats: stats}); err != nil {
		t.Fatal(err)
	}
	if stats.Paths <= 0 || stats.Join <= 0 || stats.Construction <= 0 {
		t.Errorf("phase stats not collected: %+v", stats)
	}
	if stats.Total() != stats.Paths+stats.Join+stats.Construction {
		t.Errorf("Total inconsistent")
	}
}

func TestModeString(t *testing.T) {
	if ModeMSJ.String() != "DI-MSJ" || ModeNLJ.String() != "DI-NLJ" || Mode(9).String() != "invalid" {
		t.Error("Mode.String wrong")
	}
}

func TestRunConvenience(t *testing.T) {
	cat, _ := figureCatalog()
	f, err := Run(`document("auction.xml")/site/people/person/name/text()`, cat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.String(); got != "Jaak TempestiCong Rosca" {
		t.Errorf("Run = %q", got)
	}
	if _, err := Run(`$$$`, cat, Options{}); err == nil {
		t.Error("Run should surface parse errors")
	}
}

func TestOrderByAcrossEngines(t *testing.T) {
	cat, icat := generatedCatalog(0.002, 6)
	query := `for $i in document("auction.xml")/site/regions/europe/item
	          order by $i/name
	          return $i/name/text()`
	want, err := interp.Run(query, icat)
	if err != nil {
		t.Fatal(err)
	}
	got := runBoth(t, query, cat)
	if !got.Equal(want) {
		t.Fatalf("order by mismatch:\n got %s\nwant %s", got.String(), want.String())
	}
	if len(want) == 0 {
		t.Fatal("degenerate workload (empty result)")
	}
	// Descending order through the same linear ordby desugar.
	desc := `for $i in document("auction.xml")/site/regions/europe/item
	         order by $i/name descending
	         return $i/name/text()`
	wantDesc, err := interp.Run(desc, icat)
	if err != nil {
		t.Fatal(err)
	}
	gotDesc := runBoth(t, desc, cat)
	if !gotDesc.Equal(wantDesc) {
		t.Fatalf("descending order by mismatch:\n got %s\nwant %s", gotDesc.String(), wantDesc.String())
	}
}

func TestExtendedXMarkQueries(t *testing.T) {
	cat, icat := generatedCatalog(0.002, 12)
	for name, query := range map[string]string{
		"Q1": xmark.Q1, "Q2": xmark.Q2, "Q6": xmark.Q6, "Q7": xmark.Q7, "Q17": xmark.Q17,
	} {
		want, err := interp.Run(query, icat)
		if err != nil {
			t.Fatalf("%s interp: %v", name, err)
		}
		got := runBoth(t, query, cat)
		if !got.Equal(want) {
			t.Errorf("%s: DI result differs from interpreter\n got %s\nwant %s",
				name, got.String(), want.String())
		}
		if len(want) == 0 {
			t.Errorf("%s: degenerate workload (empty result)", name)
		}
	}
}

func TestIfAndQuantifiersAcrossEngines(t *testing.T) {
	cat, icat := generatedCatalog(0.001, 13)
	queries := []string{
		`for $p in document("auction.xml")/site/people/person
		 return if ($p/homepage) then <hp>{$p/homepage/text()}</hp> else <nohp name="{$p/name/text()}"/>`,
		`for $t in document("auction.xml")/site/closed_auctions/closed_auction
		 where some $p in document("auction.xml")/site/people/person
		       satisfies $p/@id = $t/buyer/@person and $p/homepage
		 return $t/price/text()`,
		`count(for $p in document("auction.xml")/site/people/person
		 where every $q in $p/homepage satisfies $q/text() != ""
		 return $p)`,
	}
	for _, query := range queries {
		want, err := interp.Run(query, icat)
		if err != nil {
			t.Fatalf("interp: %v\n%s", err, query)
		}
		got := runBoth(t, query, cat)
		if !got.Equal(want) {
			t.Errorf("mismatch on:\n%s\n got %s\nwant %s", query, got.String(), want.String())
		}
	}
}

func TestPipelineFusionMatchesMaterialized(t *testing.T) {
	cat, _ := generatedCatalog(0.002, 21)
	for _, query := range []string{xmark.Q8, xmark.Q9, xmark.Q13, xmark.Q1, xmark.Q17} {
		q := Compile(xq.MustParse(query), Options{})
		fused, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ})
		if err != nil {
			t.Fatal(err)
		}
		plain, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, NoPipeline: true})
		if err != nil {
			t.Fatal(err)
		}
		if len(fused.Tuples) != len(plain.Tuples) {
			t.Fatalf("fused %d tuples, materialized %d", len(fused.Tuples), len(plain.Tuples))
		}
		for i := range fused.Tuples {
			a, b := fused.Tuples[i], plain.Tuples[i]
			if a.S != b.S || !a.L.Equal(b.L) || !a.R.Equal(b.R) {
				t.Fatalf("tuple %d differs: %s vs %s", i, a, b)
			}
		}
	}
}

func TestQ14Contains(t *testing.T) {
	cat, icat := generatedCatalog(0.002, 14)
	want, err := interp.Run(xmark.Q14, icat)
	if err != nil {
		t.Fatal(err)
	}
	got := runBoth(t, xmark.Q14, cat)
	if !got.Equal(want) {
		t.Fatalf("Q14 mismatch: got %d trees, want %d", len(got), len(want))
	}
	if len(want) == 0 {
		t.Fatal("Q14 degenerate: no item descriptions mention the word")
	}
}

func TestPlanTree(t *testing.T) {
	q := Compile(xq.MustParse(xmark.Q8), Options{})
	msj := q.Plan(Options{ForceJoinMode: ModeMSJ}).Tree()
	if !strings.Contains(msj, "for-merge-join") {
		t.Errorf("MSJ plan missing merge join:\n%s", msj)
	}
	if !strings.Contains(msj, "[stream]") || !strings.Contains(msj, `scan [document("auction.xml")]`) {
		t.Errorf("plan tree:\n%s", msj)
	}
	nlj := q.Plan(Options{ForceJoinMode: ModeNLJ}).Tree()
	if strings.Contains(nlj, "for-merge-join") {
		t.Errorf("NLJ plan should not merge join:\n%s", nlj)
	}
	if !strings.Contains(nlj, "for-nested-loop") {
		t.Errorf("NLJ plan:\n%s", nlj)
	}
	// The embedded outer variable appears in both (the correlated $p).
	if !strings.Contains(nlj, "embed-outer") {
		t.Errorf("NLJ plan missing embed-outer:\n%s", nlj)
	}
	// Digit annotations are present and the root digit count matches the
	// For nesting (Q8: person loop digits + content).
	if !strings.Contains(msj, "{digits:") {
		t.Errorf("missing digit annotations:\n%s", msj)
	}
	// Without pipelining, no operator is marked streamable; the same path
	// operators run through the materializing engine instead.
	raw := q.Plan(Options{ForceJoinMode: ModeMSJ, NoPipeline: true}).Tree()
	if strings.Contains(raw, "[stream]") || !strings.Contains(raw, "select") {
		t.Errorf("NoPipeline plan:\n%s", raw)
	}
}

func TestPlanMatchesRuntimeStrategy(t *testing.T) {
	// The static plan's strategy must agree with what the evaluator did.
	cat, _ := generatedCatalog(0.001, 44)
	queries := []string{xmark.Q8, xmark.Q9, xmark.Q13, xmark.Q17}
	for _, query := range queries {
		q := Compile(xq.MustParse(query), Options{})
		plan := q.Plan(Options{ForceJoinMode: ModeMSJ}).Tree()
		staticMJ := strings.Count(plan, "for-merge-join")
		stats := &Stats{}
		if _, err := q.Eval(cat, Options{ForceJoinMode: ModeMSJ, Stats: stats}); err != nil {
			t.Fatal(err)
		}
		if staticMJ != stats.MergeJoins {
			t.Errorf("static plan says %d merge joins, runtime did %d:\n%s", staticMJ, stats.MergeJoins, plan)
		}
	}
}

func TestQueryingUpdatedRelations(t *testing.T) {
	// Relations whose keys grew through updates must stay queryable in
	// both modes (regression: the for-loop digit arithmetic must use the
	// document's true key width, not 1).
	doc, _ := xmltree.Parse(`<db><as><rec><k>a</k></rec></as><bs><rec><k>a</k></rec></bs></db>`)
	rel := interval.Encode(doc)
	extra, _ := xmltree.Parse(`<rec><k>a</k></rec>`)
	var asL interval.Key
	for _, tp := range rel.Tuples {
		if tp.S == "<as>" {
			asL = tp.L
		}
	}
	rel2, err := update.AppendChild(rel, asL, extra)
	if err != nil {
		t.Fatal(err)
	}
	cat := Catalog{"d": rel2}
	f2, err := interval.Decode(rel2)
	if err != nil {
		t.Fatal(err)
	}
	icat := interp.Catalog{"d": f2}
	query := `for $x in document("d")/db/as/rec
	          return for $y in document("d")/db/bs/rec
	          where $x/k = $y/k return "hit"`
	want, err := interp.Run(query, icat)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []Mode{ModeMSJ, ModeNLJ} {
		got, err := Run(query, cat, Options{ForceJoinMode: mode})
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		if !got.Equal(want) {
			t.Fatalf("%s: got %s, want %s", mode, got.String(), want.String())
		}
	}
}
