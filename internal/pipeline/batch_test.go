package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dixq/internal/engine"
	"dixq/internal/interval"
	"dixq/internal/xmltree"
)

// sameTuples compares two relations digit-for-digit: labels, exact key
// lengths, and every digit must match. Stricter than Key.Equal on purpose —
// the batch runtime promises digit-identical output to the materializing
// engine operators.
func sameTuples(t *testing.T, name string, got, want *interval.Relation) bool {
	t.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		t.Logf("%s: %d tuples, want %d", name, len(got.Tuples), len(want.Tuples))
		return false
	}
	for i := range got.Tuples {
		a, b := got.Tuples[i], want.Tuples[i]
		if a.S != b.S || len(a.L) != len(b.L) || len(a.R) != len(b.R) ||
			!a.L.Equal(b.L) || !a.R.Equal(b.R) {
			t.Logf("%s: tuple %d = %s (lens %d/%d), want %s (lens %d/%d)",
				name, i, a, len(a.L), len(a.R), b, len(b.L), len(b.R))
			return false
		}
	}
	return true
}

// batchPairs maps every materializing engine operator to its batch kernel.
var batchPairs = []struct {
	name   string
	engine func(*interval.Relation) *interval.Relation
	batch  func(Batch) Batch
}{
	{"Roots", engine.Roots, NewBatchRoots},
	{"Children", engine.Children, NewBatchChildren},
	{"SelectLabel",
		func(r *interval.Relation) *interval.Relation { return engine.SelectLabel("<a>", r) },
		func(b Batch) Batch { return NewBatchSelectLabel("<a>", b) }},
	{"SelectText", engine.SelectText, NewBatchSelectText},
	{"Data", engine.Data, NewBatchData},
	{"Head",
		func(r *interval.Relation) *interval.Relation { return engine.Head(r, 0) },
		func(b Batch) Batch { return NewBatchHead(b, 0) }},
	{"Tail",
		func(r *interval.Relation) *interval.Relation { return engine.Tail(r, 0) },
		func(b Batch) Batch { return NewBatchTail(b, 0) }},
}

// TestOperatorsMatchEngine is the per-operator differential: every
// batch kernel must reproduce its materializing engine operator
// digit-for-digit on random forests, across batch sizes down to one row
// per chunk (which exercises all the state carried across chunk
// boundaries).
func TestOperatorsMatchEngine(t *testing.T) {
	for _, p := range batchPairs {
		for _, bs := range []int{1, 2, 3, 7, DefaultBatchSize} {
			cfg := &quick.Config{MaxCount: 120}
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				rel := interval.Encode(xmltree.RandomForest(rng, 12))
				want := p.engine(rel)
				got, _ := MaterializeBatches(p.batch(NewRelationBatches(rel, bs)), rel)
				return sameTuples(t, p.name, got, want)
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Errorf("%s (batch=%d): %v", p.name, bs, err)
			}
		}
	}
}

// TestBatchKernelsMatchScalar checks that chunking does not change a
// kernel's output: at every batch size each kernel must reproduce its own
// row-at-a-time run (one row per chunk) digit-for-digit, over both the
// relation and the flat batch sources.
func TestBatchKernelsMatchScalar(t *testing.T) {
	for _, p := range batchPairs {
		for _, bs := range []int{2, 3, 7, DefaultBatchSize} {
			cfg := &quick.Config{MaxCount: 120}
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				rel := interval.Encode(xmltree.RandomForest(rng, 12))
				want, _ := MaterializeBatches(p.batch(NewRelationBatches(rel, 1)), rel)
				got, _ := MaterializeBatches(p.batch(NewRelationBatches(rel, bs)), rel)
				if !sameTuples(t, p.name+"/relation", got, want) {
					return false
				}
				// Flat windows are compacted in place, so the flat source
				// gets its own copy.
				got2, _ := MaterializeBatches(p.batch(NewFlatBatches(interval.FlatOf(rel), bs)), nil)
				return sameTuples(t, p.name+"/flat", got2, want)
			}
			if err := quick.Check(f, cfg); err != nil {
				t.Errorf("%s (batch=%d): %v", p.name, bs, err)
			}
		}
	}
}

// TestBatchChainMatchesEngine fuses a multi-step chain and compares with
// the same steps applied one by one through the materializing engine, over
// both batch sources and at every batch size of the per-kernel test.
func TestBatchChainMatchesEngine(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := interval.Encode(xmltree.RandomForest(rng, 15))
		want := engine.Data(engine.SelectLabel("<a>", engine.Children(rel)))
		stages := func() []Stage {
			return []Stage{ChildrenStage(), SelectLabelStage("<a>"), DataStage()}
		}
		for _, bs := range []int{1, 2, 3, 7, DefaultBatchSize} {
			got, _ := MaterializeBatches(NewChain(NewRelationBatches(rel, bs), stages()), rel)
			if !sameTuples(t, "chain/relation", got, want) {
				return false
			}
			// Flat windows are compacted in place, so each pass gets a
			// fresh copy.
			flat := interval.FlatOf(rel)
			got2, _ := MaterializeBatches(
				NewBatchData(NewBatchSelectLabel("<a>", NewBatchChildren(NewFlatBatches(flat, bs)))), nil)
			if !sameTuples(t, "chain/flat", got2, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestBatchHeadTailMultiEnv pins the environment-boundary state machine
// with chunk boundaries falling inside and between environments, and
// checks that head and tail partition the input.
func TestBatchHeadTailMultiEnv(t *testing.T) {
	forests := []xmltree.Forest{
		{xmltree.NewElement("a", xmltree.NewText("x")), xmltree.NewElement("b")},
		nil,
		{xmltree.NewText("only")},
		{xmltree.NewElement("c"), xmltree.NewElement("d"), xmltree.NewElement("e")},
	}
	rel := &interval.Relation{}
	for i, f := range forests {
		enc := interval.Encode(f)
		for _, tp := range enc.Tuples {
			rel.Tuples = append(rel.Tuples, interval.Tuple{
				S: tp.S,
				L: append(interval.Key{int64(i)}, tp.L...),
				R: append(interval.Key{int64(i)}, tp.R...),
			})
		}
	}
	wantHead, wantTail := engine.Head(rel, 1), engine.Tail(rel, 1)
	if wantHead.Len()+wantTail.Len() != rel.Len() {
		t.Fatal("head/tail do not partition the input")
	}
	for _, bs := range []int{1, 2, 3, 64} {
		gotHead, _ := MaterializeBatches(NewBatchHead(NewRelationBatches(rel, bs), 1), rel)
		if !sameTuples(t, "head", gotHead, wantHead) {
			t.Errorf("head diverged at batch=%d", bs)
		}
		gotTail, _ := MaterializeBatches(NewBatchTail(NewRelationBatches(rel, bs), 1), rel)
		if !sameTuples(t, "tail", gotTail, wantTail) {
			t.Errorf("tail diverged at batch=%d", bs)
		}
	}
}

// TestCountTreesBatches checks the batched tree counter against the
// engine's roots on random forests: one root per top-level tree.
func TestCountTreesBatches(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rel := interval.Encode(xmltree.RandomForest(rng, 12))
		want := engine.Roots(rel).Len()
		got := CountTreesBatches(NewRelationBatches(rel, 3))
		if got != want {
			t.Logf("seed %d: got %d trees, want %d", seed, got, want)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestBatchCounter checks the pass-through accounting wrapper.
func TestBatchCounter(t *testing.T) {
	f, _ := xmltree.Parse(`<a><b/></a><c/><d>x</d>`)
	rel := interval.Encode(f)
	c := &BatchCounter{In: NewRelationBatches(rel, 2)}
	out, st := MaterializeBatches(c, rel)
	if out.Len() != rel.Len() {
		t.Fatalf("counter dropped rows: %d != %d", out.Len(), rel.Len())
	}
	if c.Rows != rel.Len() {
		t.Errorf("Rows = %d, want %d", c.Rows, rel.Len())
	}
	wantBatches := (rel.Len() + 1) / 2
	if c.Batches != wantBatches || st.Batches != wantBatches {
		t.Errorf("Batches = %d/%d, want %d", c.Batches, st.Batches, wantBatches)
	}
	if c.Bytes <= 0 || st.Bytes != c.Bytes {
		t.Errorf("Bytes = %d/%d, want positive and equal", c.Bytes, st.Bytes)
	}
}

// TestBatchSourcesNeverYieldEmpty pins the no-empty-chunk contract.
func TestBatchSourcesNeverYieldEmpty(t *testing.T) {
	empty := &interval.Relation{}
	if _, ok := NewRelationBatches(empty, 8).Next(); ok {
		t.Error("RelationBatches yielded a chunk for an empty relation")
	}
	if _, ok := NewFlatBatches(interval.FlatOf(empty), 8).Next(); ok {
		t.Error("FlatBatches yielded a chunk for an empty relation")
	}
	rel := interval.Encode(xmltree.Forest{xmltree.NewText("x")})
	// A kernel that filters everything out must report exhaustion, not an
	// empty chunk.
	none := NewKernel(NewRelationBatches(rel, 8), SelectLabelStage("<never>"))
	if _, ok := none.Next(); ok {
		t.Error("kernel yielded an empty chunk")
	}
}
