package pipeline

import (
	"math/rand"
	"testing"
	"testing/quick"

	"dixq/internal/interval"
	"dixq/internal/xfn"
	"dixq/internal/xmltree"
)

// TestFusedChainMatchesSpec runs a whole path chain through the pipeline in
// one pass and compares with the forest-level specification.
func TestFusedChainMatchesSpec(t *testing.T) {
	cfg := &quick.Config{MaxCount: 300}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		forest := xmltree.RandomForest(rng, 15)
		rel := interval.Encode(forest)
		// select("<a>", children(·)) then data(·): a two-step path plus
		// atomization, fused.
		chain := NewChain(NewRelationBatches(rel, 0),
			[]Stage{ChildrenStage(), SelectLabelStage("<a>"), DataStage()})
		out, _ := MaterializeBatches(chain, rel)
		got, err := interval.Decode(out)
		if err != nil {
			return false
		}
		want := xfn.Data(xfn.Select("<a>", xfn.Children(forest)))
		return got.Equal(want)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestCountTrees(t *testing.T) {
	f, _ := xmltree.Parse(`<a><b/></a><c/><d>x</d>`)
	rel := interval.Encode(f)
	for _, bs := range []int{1, 2, DefaultBatchSize} {
		if got := CountTreesBatches(NewRelationBatches(rel, bs)); got != 3 {
			t.Errorf("batch=%d: CountTreesBatches = %d, want 3", bs, got)
		}
	}
	if got := CountTreesBatches(NewRelationBatches(&interval.Relation{}, 0)); got != 0 {
		t.Errorf("CountTreesBatches(empty) = %d", got)
	}
}

// TestScanExhaustion pins the end-of-input contract of the batch sources:
// once Next reports exhaustion it keeps reporting it.
func TestScanExhaustion(t *testing.T) {
	rel := interval.Encode(xmltree.Forest{xmltree.NewText("x")})
	var ranges RangeBatches
	ranges.Init(rel, [][2]int32{{0, 1}}, 8, nil)
	for _, src := range []struct {
		name string
		b    Batch
	}{
		{"relation", NewRelationBatches(rel, 8)},
		{"flat", NewFlatBatches(interval.FlatOf(rel), 8)},
		{"ranges", &ranges},
	} {
		if f, ok := src.b.Next(); !ok || f.Len() != 1 {
			t.Fatalf("%s: first Next should yield the one row", src.name)
		}
		for i := 0; i < 2; i++ {
			if _, ok := src.b.Next(); ok {
				t.Fatalf("%s: Next after the last chunk should report exhaustion", src.name)
			}
		}
	}
}
