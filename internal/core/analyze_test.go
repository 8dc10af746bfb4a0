package core

import (
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"dixq/internal/index"
	"dixq/internal/plan"
	"dixq/internal/stats"
	"dixq/internal/xmark"
	"dixq/internal/xq"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden analyze-plan files")

// scrubStats masks the run-dependent actuals (granted workers, wall time,
// allocated bytes, chunk footprints) in an analyze rendering; calls, rows,
// batches and spilled runs are deterministic for a fixed document, so they
// stay and are locked by the goldens.
var scrubStats = regexp.MustCompile(`workers=\d+ time=[^ )]+ allocs=-?\d+ bytes=-?\d+`)

func scrubAnalyze(s string) string {
	return scrubStats.ReplaceAllString(s, "workers=_ time=_ allocs=_ bytes=_")
}

// TestAnalyzeGoldenPlans locks the analyze-mode plan renderings for the
// paper's three benchmark queries and a sample of the other XMark queries
// under both forced join modes and the cost-based optimizer (fed real
// statistics): the plan shape, the static annotations — including the
// optimizer's per-operator row estimates — and the per-operator
// calls/rows actuals. A diff here means the compiler, the optimizer's
// costing, the executor's dispatch, or the instrumentation changed —
// regenerate with `go test -run Golden -update` and review the diff
// consciously.
func TestAnalyzeGoldenPlans(t *testing.T) {
	cat, _ := generatedCatalog(0.0005, 20030609)
	queries := []struct {
		name  string
		query string
	}{
		{"q8", xmark.Q8},
		{"q9", xmark.Q9},
		{"q13", xmark.Q13},
		// The aggregation/arithmetic/positional/order-by extensions:
		// q3 locks take/arith/value-comparison plans, q5 the aggregate
		// reduction, q19 the order-by lowering with its rank digit.
		{"q3", xmark.Q3},
		{"q5", xmark.Q5},
		{"q19", xmark.Q19},
		// q11 locks loop-invariant code motion: the income of $p is bound
		// once per person around the $i loop and embedded as a value.
		{"q11", xmark.Q11},
	}
	modes := []struct {
		name  string
		mode  Mode
		stats *stats.Set
	}{
		{"msj", ModeMSJ, nil},
		{"nlj", ModeNLJ, nil},
		{"opt", ModeAuto, stats.CollectSet(cat)},
	}
	// The indexed variants rerun each query with the catalog's structural
	// indexes attached, locking the access-path marks ([access=index],
	// [access=pruned]) and the skipped-tuple actuals of the seek plans.
	variants := []struct {
		suffix  string
		indexes *index.Set
	}{
		{"", nil},
		{"_idx", index.BuildSet(cat)},
	}
	for _, qq := range queries {
		for _, mm := range modes {
			for _, vv := range variants {
				t.Run(qq.name+"-"+mm.name+vv.suffix, func(t *testing.T) {
					q := Compile(xq.MustParse(qq.query), Options{})
					// Parallelism is pinned to 1 so the batch counts locked by
					// the goldens cannot shift with GOMAXPROCS (the parallel
					// chain runner chunks the input per morsel).
					text, rs, err := q.ExplainAnalyze(cat, Options{ForceJoinMode: mm.mode, DocStats: mm.stats, Parallelism: 1, Indexes: vv.indexes})
					if err != nil {
						t.Fatal(err)
					}
					if rs.Total() <= 0 {
						t.Error("analyze run recorded no time at all")
					}
					got := scrubAnalyze(text)
					path := filepath.Join("testdata", "analyze_"+qq.name+"_"+mm.name+vv.suffix+".golden")
					if *updateGolden {
						if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("missing golden (run with -update to create): %v", err)
					}
					if got != string(want) {
						t.Errorf("analyze plan drifted from %s:\n--- got ---\n%s\n--- want ---\n%s",
							path, got, want)
					}
				})
			}
		}
	}
}

// analyzed evaluates q with per-plan-node instrumentation and returns the
// executed plan together with its actuals.
func analyzed(t *testing.T, q *Query, cat Catalog, opts Options) (*plan.Node, *plan.RunStats) {
	t.Helper()
	rs := &plan.RunStats{}
	opts.Analyze = rs
	if _, err := q.Eval(cat, opts); err != nil {
		t.Fatal(err)
	}
	return q.Plan(opts), rs
}

// materializedPathRows sums the output rows of the path operators that
// materialize a relation: every path operator outside a fused chain, and
// the head of each fused chain (whose inner stages hand their survivors on
// chunk by chunk without materializing). streamed counts the path
// operators that ran inside a fused chain, heads included.
func materializedPathRows(root *plan.Node, rs *plan.RunStats) (rows int64, streamed int) {
	var visit func(n *plan.Node, inChain bool)
	visit = func(n *plan.Node, inChain bool) {
		isPath := n.Op == plan.OpRoots || n.Op == plan.OpPathStep
		if isPath && n.Streamable {
			streamed++
		}
		if isPath && !(inChain && n.Streamable) {
			rows += rs.Node(n.ID).Rows
		}
		for _, c := range n.Inputs {
			visit(c, isPath && n.Streamable)
		}
	}
	visit(root, false)
	return rows, streamed
}

// TestQ13StreamsAllPathChains asserts the streaming satellite end to end
// on Q13 (the path-extraction-heavy benchmark query): with pipelining on,
// every path operator — including single-step chains — runs streamed, so
// strictly fewer intermediate rows are materialized than under the
// NoPipeline ablation.
func TestQ13StreamsAllPathChains(t *testing.T) {
	cat, _ := generatedCatalog(0.002, 30)
	q := Compile(xq.MustParse(xmark.Q13), Options{})

	fusedPlan, fused := analyzed(t, q, cat, Options{})
	fusedRows, streamed := materializedPathRows(fusedPlan, fused)
	if streamed == 0 {
		t.Fatal("fused run has no streamed path operators")
	}
	plan.Walk(fusedPlan, func(n *plan.Node) {
		if (n.Op == plan.OpRoots || n.Op == plan.OpPathStep) && !n.Streamable {
			t.Errorf("fused plan materializes path operator %s", n.OpName())
		}
	})

	ablatedPlan, ablated := analyzed(t, q, cat, Options{NoPipeline: true})
	ablatedRows, ablatedStreamed := materializedPathRows(ablatedPlan, ablated)
	if ablatedStreamed != 0 {
		t.Errorf("NoPipeline run streamed %d path operators", ablatedStreamed)
	}
	if ablatedRows == 0 {
		t.Fatal("NoPipeline run materialized no path rows; analyze broken")
	}
	if fusedRows >= ablatedRows {
		t.Errorf("fusion materialized %d rows, ablation %d; want strictly fewer",
			fusedRows, ablatedRows)
	}
}

// TestSingleStepChainStreams pins the length-1 case directly: a lone path
// step (no adjacent path operator to fuse with) still executes as a
// one-operator pipeline, drawing its input in chunks, rather than falling
// back to materialization.
func TestSingleStepChainStreams(t *testing.T) {
	cat, _ := generatedCatalog(0.0005, 20030609)
	q := Compile(xq.MustParse(`count(children(document("auction.xml")))`), Options{NoRewrites: true})
	root, rs := analyzed(t, q, cat, Options{NoRewrites: true})
	found := false
	plan.Walk(root, func(n *plan.Node) {
		if n.Op != plan.OpPathStep || n.Step != plan.StepChildren {
			return
		}
		found = true
		if !n.Streamable {
			t.Error("single-step chain materialized instead of streaming")
		}
		if st := rs.Node(n.ID); st.Calls != 1 || st.Batches == 0 {
			t.Errorf("lone children step ran %d times over %d batches; want one batched run", st.Calls, st.Batches)
		}
	})
	if !found {
		t.Error("no children step in the plan")
	}
}

// feedsChainFromSeek reports whether a plan contains a streamed path chain
// whose source is a servable index seek — the shape tryIndexedChain fuses.
func feedsChainFromSeek(root *plan.Node) bool {
	found := false
	plan.Walk(root, func(n *plan.Node) {
		if (n.Op != plan.OpRoots && n.Op != plan.OpPathStep) || !n.Streamable {
			return
		}
		if in := n.Inputs[0]; in.Op == plan.OpIndexPath && in.Seek != nil && !in.Seek.Pruned {
			found = true
		}
	})
	return found
}

// seekChainQueries are path queries over the XMark document whose plans
// feed a streamed chain from an index seek: a positional step (head) or an
// atomization (data) above an absorbable path. None of Q1-Q20 has that
// shape — hoisting binds their document paths to let-bound seeks with no
// chain above them — so these take the suite's paths with a positional
// step made absolute (Q2's bidder[1], for instance).
var seekChainQueries = []string{
	`count(document("auction.xml")/site/open_auctions/open_auction/bidder[1])`,
	`for $b in document("auction.xml")/site/open_auctions/open_auction/bidder[1] return <increase>{$b/increase/text()}</increase>`,
	`for $p in document("auction.xml")/site/people/person[1] return $p/name/text()`,
	`document("auction.xml")/site/closed_auctions/closed_auction[1]/price/text()`,
	`data(document("auction.xml")/site/people/person[1]/name/text())`,
}

// TestIndexedChainMatchesAnalyzedRoute covers both routes of a path chain
// fed by an index seek. A plain serial run streams the seek's row ranges
// straight into the chain's chunks (tryIndexedChain); the same run with
// Analyze set materializes the seek through execIndexPath first and runs
// the chain over that relation. For Q1-Q20 and seekChainQueries, every
// query/mode whose plan has such a chain must be digit-identical across
// the two routes.
func TestIndexedChainMatchesAnalyzedRoute(t *testing.T) {
	cat, _ := generatedCatalog(0.002, 20030609)
	set := index.BuildSet(cat)
	queries := append([]string(nil), seekChainQueries...)
	for _, qq := range xmark.All {
		queries = append(queries, qq.Text)
	}
	seeded := 0
	for _, text := range queries {
		q := Compile(xq.MustParse(text), Options{})
		for _, mode := range []Mode{ModeAuto, ModeMSJ, ModeNLJ} {
			opts := Options{ForceJoinMode: mode, Parallelism: 1, Indexes: set}
			if !feedsChainFromSeek(q.Plan(opts)) {
				continue
			}
			seeded++
			fused, err := q.Eval(cat, opts)
			if err != nil {
				t.Fatalf("%s %s: %v", mode, text, err)
			}
			opts.Analyze = &plan.RunStats{}
			materialized, err := q.Eval(cat, opts)
			if err != nil {
				t.Fatalf("%s %s (analyze): %v", mode, text, err)
			}
			if fused.Len() == 0 {
				t.Errorf("%s %s: empty answer; the chain filtered nothing to compare", mode, text)
			}
			sameTuples(t, mode.String()+" "+text, fused, materialized)
		}
	}
	if want := 3 * len(seekChainQueries); seeded < want {
		t.Fatalf("%d query/mode pairs feed a chain from an index seek, want at least %d: the test lost its subject", seeded, want)
	}
}
