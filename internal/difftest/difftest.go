// Package difftest is the cross-engine differential harness: one shared
// corpus of queries and documents, executed through every evaluation
// strategy the repository ships — the denotational interpreter (the
// semantic oracle), the cost-based DI-OPT mode (with and without real
// statistics) and the forced DI-MSJ and DI-NLJ plan modes, the unfused
// materializing baseline, the batched pipeline at several chunk sizes,
// and every Parallelism/MemBudget combination — asserting digit-identical
// results.
//
// The comparisons happen at two levels:
//
//   - against the interpreter, results are compared as decoded forests
//     (the interpreter has no interval encoding, so forest equality is
//     the strongest available check);
//   - between DI variants, result relations are compared tuple-for-tuple
//     including the physical digit count of every key. The variants are
//     purely algorithmic switches, so nothing weaker than digit identity
//     is acceptable: a batched, spilled, eight-worker run must be
//     indistinguishable from the serial materializing run.
//
// Tests that need one engine pair live with their package; tests whose
// point is "all engines agree on the shared corpus" live here, so the
// corpus and the variant matrix exist exactly once.
package difftest

import (
	"fmt"
	"testing"

	"dixq/internal/core"
	"dixq/internal/index"
	"dixq/internal/interp"
	"dixq/internal/interval"
	"dixq/internal/stats"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// Case is one corpus entry: a query over one of the shared documents.
type Case struct {
	Name  string
	Query string
	// Generated selects the generated XMark document ("auction.xml");
	// false selects the small hand-written document ("d").
	Generated bool
}

// Corpus is the shared query corpus. The first group is the end-to-end
// fuzz seed corpus over a small hand-written document — queries chosen to
// cover the breadth of the core language (paths, correlated loops,
// let/where, order by, quantifiers, user functions, aggregation,
// arithmetic, positional predicates). The second group is the full XMark
// suite expressible in the fragment (Q1-Q20) plus sort/distinct-heavy
// queries over a generated XMark instance, where the structural sorts and
// merge joins have enough input to engage the parallel and spilling code
// paths.
func Corpus() []Case {
	return []Case{
		{"seed-path-text", `document("d")/a/b/text()`, false},
		{"seed-self-join", `for $x in document("d")/a return for $y in document("d")/a where $x = $y return <m>{$x}</m>`, false},
		{"seed-let-count", `let $a := for $t in document("d")//b return $t where not(empty($a)) return count($a)`, false},
		{"seed-order-by", `for $x at $i in document("d") order by $x descending return ($i, $x)`, false},
		{"seed-some-sort", `if (some $v in document("d") satisfies contains($v, "x")) then "y" else sort(document("d"))`, false},
		{"seed-function", `declare function f($v) { $v/b }; f(document("d"))`, false},
		{"seed-aggregates", `<r>{sum((1, 2.5, document("d")/a/@x))} {avg(document("d")//b)} {min(document("d")//b/text())} {max(document("d")/a/@x)}</r>`, false},
		{"seed-positional", `for $x in document("d")/a return ($x/b[1], $x/*[position() <= 2], $x/*[2])`, false},
		{"seed-arith-cmp", `for $x in document("d")//b where $x/text() >= "t" return document("d")/a/@x + 2 * 3`, false},
		{"seed-ordby-key", `for $x in document("d")//b order by $x/text() descending return $x`, false},
		{"xmark-q1", xmark.Q1, true},
		{"xmark-q2", xmark.Q2, true},
		{"xmark-q3", xmark.Q3, true},
		{"xmark-q4", xmark.Q4, true},
		{"xmark-q5", xmark.Q5, true},
		{"xmark-q6", xmark.Q6, true},
		{"xmark-q7", xmark.Q7, true},
		{"xmark-q8", xmark.Q8, true},
		{"xmark-q9", xmark.Q9, true},
		{"xmark-q10", xmark.Q10, true},
		{"xmark-q11", xmark.Q11, true},
		{"xmark-q12", xmark.Q12, true},
		{"xmark-q13", xmark.Q13, true},
		{"xmark-q14", xmark.Q14, true},
		{"xmark-q15", xmark.Q15, true},
		{"xmark-q16", xmark.Q16, true},
		{"xmark-q17", xmark.Q17, true},
		{"xmark-q18", xmark.Q18, true},
		{"xmark-q19", xmark.Q19, true},
		{"xmark-q20", xmark.Q20, true},
		{"xmark-sort", `for $x in document("auction.xml")/site/people/person return sort($x/*)`, true},
		{"xmark-distinct", `distinct(document("auction.xml")/site/regions/*/item/name)`, true},
		// A structural self-join on a low-cardinality key: the generator
		// draws names from a small pool, so the sorted join inputs are long
		// equal-key runs and the partitioned probe's boundaries land inside
		// them — the case where a per-partition probe must re-find the full
		// matching run.
		{"xmark-dup-join", `for $x in document("auction.xml")/site/people/person/name
		 for $y in document("auction.xml")/site/people/person/name
		 where $x = $y return <m>{$x/text()}</m>`, true},
		// Loop-invariant code motion: expressions over outer variables
		// sitting two and three loops deep, a top-level let used inside a
		// loop, a loop variable shadowed by an inner loop, and positional
		// variables feeding arithmetic in an inner loop.
		{"licm-depth3", `for $r in document("auction.xml")/site/regions/*
		 for $i in $r/item
		 for $d in $i/description/text
		 return <m n="{count($r/item)}" q="{$i/quantity/text()}">{$i/name/text()}</m>`, true},
		{"licm-join-depth3", `for $p in document("auction.xml")/site/people/person
		 for $i in $p/profile/interest
		 for $c in document("auction.xml")/site/categories/category
		 where $c/@id = $i/@category and $p/profile/@income > 40000
		 return <m>{$p/name/text()}{$c/name/text()}</m>`, true},
		{"licm-top-let", `let $v := document("d")//b
		 for $x in document("d")/a/*
		 return <t n="{count($v)}">{$x/text()}</t>`, false},
		{"licm-shadowed", `for $x in document("d")/a
		 for $y in $x/*
		 return (count($x/b), for $x in $y/b return <s n="{count($y/b)}">{$x/text()}</s>)`, false},
		{"licm-positional", `for $x at $i in document("d")/a/*
		 for $y at $j in $x/*
		 return <p>{$i * 10 + $j}</p>`, false},
	}
}

// handDoc is the hand-written document of the fuzz seed corpus.
const handDoc = `<a x="1"><b>t</b><b>u</b><c><b>t</b></c></a>`

// Docs builds the shared document set: the hand-written document as "d"
// and a generated XMark instance as "auction.xml", in both the DI
// encoding and the interpreter's tree form.
func Docs(tb testing.TB, scale float64, seed int64) (core.Catalog, interp.Catalog) {
	tb.Helper()
	hand, err := xmltree.Parse(handDoc)
	if err != nil {
		tb.Fatal(err)
	}
	gen := xmark.Generate(xmark.Config{ScaleFactor: scale, Seed: seed})
	forests := map[string]xmltree.Forest{"d": hand, "auction.xml": gen}
	return core.EncodeCatalog(forests), interp.Catalog{"d": hand, "auction.xml": gen}
}

// Variant is one evaluation configuration of the DI engine.
type Variant struct {
	Name string
	Opts core.Options
}

// Baseline is the reference DI configuration every variant is compared
// against: serial, unfused, in-memory DI-MSJ, where every path step
// materializes through package engine — the most literal execution of the
// compiled plan.
func Baseline() core.Options {
	return core.Options{ForceJoinMode: core.ModeMSJ, Parallelism: 1, NoPipeline: true}
}

// Variants is the full configuration matrix: the default configuration,
// then the batched pipeline crossed over plan mode x chunk size x worker
// count x memory budget. spillDir receives the external-sort runs of the
// budgeted variants.
func Variants(spillDir string) []Variant {
	vs := []Variant{
		{"default", core.Options{ForceJoinMode: core.ModeMSJ}},
		// An odd worker count under a 1-byte budget: partition boundaries
		// fall at different keys than the even-count variants while every
		// structural sort spills mid-join through the background writer.
		{"msj-batch3-par3-budget1", core.Options{ForceJoinMode: core.ModeMSJ, BatchSize: 3, Parallelism: 3, MemBudget: 1, SpillDir: spillDir}},
	}
	for _, mode := range []core.Mode{core.ModeAuto, core.ModeMSJ, core.ModeNLJ} {
		for _, par := range []int{1, 4} {
			for _, budget := range []int64{0, 256} {
				for _, size := range []int{1, 3, 256} {
					vs = append(vs, Variant{
						Name: fmt.Sprintf("%s-batch%d-par%d-budget%d", mode, size, par, budget),
						Opts: core.Options{
							ForceJoinMode: mode,
							BatchSize:     size,
							Parallelism:   par,
							MemBudget:     budget,
							SpillDir:      spillDir,
						},
					})
				}
			}
		}
	}
	return vs
}

// WithIndexes clones every variant with the catalog's structural indexes
// attached (name suffix "-idx") — the index-on half of the matrix. Index
// seeks and dataguide pruning are pure access-path substitutions, so an
// indexed run must be digit-identical to its scan-backed twin.
func WithIndexes(vs []Variant, set *index.Set) []Variant {
	out := make([]Variant, 0, len(vs))
	for _, v := range vs {
		v.Name += "-idx"
		v.Opts.Indexes = set
		out = append(out, v)
	}
	return out
}

// WithStats clones the ModeAuto variants with real per-document
// statistics attached (name suffix "-stats") — the configurations where
// the cost-based optimizer makes informed choices instead of nominal
// ones. Whatever it decides must stay digit-identical to the forced
// modes, so the clones join the same matrix.
func WithStats(vs []Variant, st *stats.Set) []Variant {
	var out []Variant
	for _, v := range vs {
		if v.Opts.ForceJoinMode != core.ModeAuto {
			continue
		}
		v.Name += "-stats"
		v.Opts.DocStats = st
		out = append(out, v)
	}
	return out
}

// IdenticalRelations asserts two result relations match tuple-for-tuple
// including the physical digit count of every key — a spilled, batched
// or parallel run must be indistinguishable from the serial materializing
// run.
func IdenticalRelations(tb testing.TB, what string, got, want *interval.Relation) {
	tb.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		tb.Fatalf("%s: %d tuples, want %d", what, len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if g.S != w.S || !g.L.Equal(w.L) || !g.R.Equal(w.R) ||
			len(g.L) != len(w.L) || len(g.R) != len(w.R) {
			tb.Fatalf("%s: tuple %d is %s (digits %d/%d), want %s (digits %d/%d)",
				what, i, g, len(g.L), len(g.R), w, len(w.L), len(w.R))
		}
	}
}

// RunCase evaluates one corpus case under the given options, returning
// the result relation (parse errors are fatal: corpus entries must
// always parse).
func RunCase(tb testing.TB, c Case, cat core.Catalog, opts core.Options) (*interval.Relation, error) {
	tb.Helper()
	e, err := xq.Parse(c.Query)
	if err != nil {
		tb.Fatalf("%s: corpus query does not parse: %v", c.Name, err)
	}
	return core.Compile(e, opts).Eval(cat, opts)
}
