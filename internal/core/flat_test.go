package core

import (
	"slices"
	"testing"

	"dixq/internal/interval"
	"dixq/internal/xmark"
	"dixq/internal/xq"
)

// sameTuples asserts two result relations are identical including the
// physical digit count of every key.
func sameTuples(t *testing.T, what string, got, want *interval.Relation) {
	t.Helper()
	if len(got.Tuples) != len(want.Tuples) {
		t.Fatalf("%s: %d tuples, want %d", what, len(got.Tuples), len(want.Tuples))
	}
	for i := range want.Tuples {
		g, w := got.Tuples[i], want.Tuples[i]
		if g.S != w.S || !slices.Equal(g.L, w.L) || !slices.Equal(g.R, w.R) {
			t.Fatalf("%s: tuple %d is %s, want %s", what, i, g, w)
		}
	}
}

// The parallel-vs-serial differential (with the sort threshold lowered so
// Parallelism > 1 actually fans out on test-sized inputs) moved to
// internal/difftest, which runs the same queries through the full
// engine/parallelism/budget matrix under -race in CI.

// BenchmarkMSJ measures the merge-join evaluation of XMark Q8, serial and
// parallel.
func BenchmarkMSJ(b *testing.B) {
	cat, _ := generatedCatalog(0.01, 7)
	q := Compile(xq.MustParse(xmark.Q8), Options{})
	for _, bc := range []struct {
		name string
		opts Options
	}{
		{"flat", Options{ForceJoinMode: ModeMSJ}},
		{"flat-parallel", Options{ForceJoinMode: ModeMSJ, Parallelism: 8}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := q.Eval(cat, bc.opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
