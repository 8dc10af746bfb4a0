package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"runtime/metrics"
	"time"

	"dixq/internal/core"
	"dixq/internal/index"
	"dixq/internal/interval"
	"dixq/internal/plan"
	"dixq/internal/stats"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
	"dixq/internal/xq"
)

// docState is one generated document in every form the query path needs:
// the tree, its interval encoding, and the index and statistics sets that
// DI-OPT plans against.
type docState struct {
	forest xmltree.Forest
	cat    core.Catalog
	idx    *index.Set
	st     *stats.Set
}

// setupTimes are the catalog-layer timings of one set-up.
type setupTimes struct {
	encode, build, collect time.Duration
}

// buildState generates the XMark document for a seed and derives its
// encoding, structural index and statistics, timing each layer.
func buildState(sf float64, seed int64) (*docState, setupTimes) {
	var t setupTimes
	f := xmark.Generate(xmark.Config{ScaleFactor: sf, Seed: seed})
	start := time.Now()
	rel := interval.Encode(f)
	t.encode = time.Since(start)
	start = time.Now()
	ix := index.Build(rel)
	t.build = time.Since(start)
	start = time.Now()
	st := stats.Collect(rel)
	t.collect = time.Since(start)
	return &docState{
		forest: f,
		cat:    core.Catalog{xmark.DocName: rel},
		idx:    &index.Set{Docs: map[string]*index.DocIndex{xmark.DocName: ix}},
		st:     &stats.Set{Docs: map[string]*stats.DocStats{xmark.DocName: st}},
	}, t
}

// queryResult is what one query operation produced, with the layer
// measurements a traced run adds.
type queryResult struct {
	rel   *interval.Relation
	xml   string
	trees int
	stats core.Stats

	// Set only when traced.
	parse, compile, planT, eval, decode, serialize time.Duration
	planNodes, loopsCosted, mergeJoinLoops         int
	seeks, sources                                 int
	evalAlloc                                      uint64
}

// runQuery takes one query text through every layer in the order
// dixq.Query.Run does — parse, compile, plan, execute, decode — and
// serializes the answer as Result.XML does. Each call opens a span under
// root when the tracer is on.
func runQuery(text string, d *docState, opts core.Options, tr *tracer, op int64, root int) (*queryResult, error) {
	res := &queryResult{}
	opts.Indexes, opts.DocStats, opts.Stats = d.idx, d.st, &res.stats

	s := tr.begin(op, root, "xq")
	e, err := xq.Parse(text)
	tr.end(s)
	res.parse = tr.dur(s)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}

	s = tr.begin(op, root, "core.compile")
	q := core.Compile(e, core.Options{})
	tr.end(s)
	res.compile = tr.dur(s)

	s = tr.begin(op, root, "core.plan")
	p := q.Plan(opts)
	tr.end(s)
	res.planT = tr.dur(s)

	var before uint64
	if tr.on {
		before = heapAllocBytes()
	}
	s = tr.begin(op, root, "exec")
	rel, err := q.Eval(d.cat, opts)
	tr.end(s)
	res.eval = tr.dur(s)
	if tr.on {
		res.evalAlloc = heapAllocBytes() - before
	}
	if err != nil {
		return nil, fmt.Errorf("eval: %w", err)
	}
	res.rel = rel

	s = tr.begin(op, root, "interval.decode")
	f, err := interval.Decode(rel)
	tr.end(s)
	res.decode = tr.dur(s)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}

	s = tr.begin(op, root, "xmltree.serialize")
	res.xml = f.String()
	tr.end(s)
	res.serialize = tr.dur(s)
	res.trees = len(f)

	if tr.on {
		plan.Walk(p, func(*plan.Node) { res.planNodes++ })
		if r := q.OptReport(opts); r != nil {
			for _, dec := range r.Decisions {
				if dec.Kind == "join-algorithm" {
					res.loopsCosted++
					if dec.Choice == "merge-join" {
						res.mergeJoinLoops++
					}
				}
			}
			for _, v := range r.Graph.Vertices {
				res.sources++
				if v.Kind == "index-seek" {
					res.seeks++
				}
			}
		}
	}
	return res, nil
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// heapAllocBytes is the cumulative heap allocation of the process. It
// reads runtime/metrics, which does not stop the world.
func heapAllocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// digest is the first 64 bits of a SHA-256.
func digest(b []byte) uint64 {
	sum := sha256.Sum256(b)
	return binary.LittleEndian.Uint64(sum[:8])
}

// xmlDigest fingerprints serialized XML.
func xmlDigest(s string) uint64 { return digest([]byte(s)) }

// relDigest fingerprints an interval relation digit for digit, physical
// key lengths included, so two relations share a digest only when they
// are tuple-for-tuple identical.
func relDigest(r *interval.Relation) uint64 {
	buf := binary.AppendUvarint(nil, uint64(len(r.Tuples)))
	for _, t := range r.Tuples {
		buf = binary.AppendUvarint(buf, uint64(len(t.S)))
		buf = append(buf, t.S...)
		for _, k := range []interval.Key{t.L, t.R} {
			buf = binary.AppendUvarint(buf, uint64(len(k)))
			for _, x := range k {
				buf = binary.AppendVarint(buf, x)
			}
		}
	}
	return digest(buf)
}
