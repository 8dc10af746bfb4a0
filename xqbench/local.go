package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync/atomic"
	"time"

	"dixq"
	"dixq/internal/core"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
)

// passOrder returns the query order of one Q1–Q20 pass: fixed for the
// suite, a seeded shuffle (one draw of each query) otherwise.
func passOrder(rng *rand.Rand) []int {
	if rng == nil {
		order := make([]int, numQueries)
		for i := range order {
			order[i] = i
		}
		return order
	}
	return rng.Perm(numQueries)
}

// localWindow runs closed-loop Q1–Q20 passes in-process on one client
// until deadline, starting a pass only while time remains, and returns
// the time spent inside queries. Every answer is fingerprinted after its
// clock stops, for the oracle check. A collection runs before every
// query, outside the clock: in the suite so that the garbage of one query
// is not charged to the next, in adhoc because a CLI invocation starts on
// a clean heap.
func localWindow(d *docState, opts core.Options, rng *rand.Rand, deadline time.Time,
	tr *tracer, ops *atomic.Int64, corrupt func(int, string) string) (*recorder, time.Duration) {
	rec := newRecorder()
	var busy time.Duration
	for time.Now().Before(deadline) {
		var pass time.Duration
		for _, q := range passOrder(rng) {
			runtime.GC()
			pass += localQuery(d, opts, q, tr, ops.Add(1), rec, corrupt)
		}
		rec.passes = append(rec.passes, pass.Seconds())
		busy += pass
	}
	return rec, busy
}

// localQuery runs and records one query operation and returns its
// latency.
func localQuery(d *docState, opts core.Options, q int, tr *tracer, op int64, rec *recorder, corrupt func(int, string) string) time.Duration {
	allocBefore := heapAllocBytes()
	start := time.Now()
	root := tr.begin(op, -1, "query")
	res, err := runQuery(xmark.All[q].Text, d, opts, tr, op, root)
	tr.end(root)
	lat := time.Since(start)
	alloc := heapAllocBytes() - allocBefore
	if err != nil {
		rec.fail(fmt.Sprintf("%s: %v", queryName(q), err))
		return lat
	}
	xml := res.xml
	if corrupt != nil {
		xml = corrupt(q, xml)
	}
	rec.ok++
	rec.seen[tallyKey{query: q, rel: relDigest(res.rel), xml: xmlDigest(xml)}]++
	rec.latMS[q] = append(rec.latMS[q], msOf(lat))
	rec.allocMB[q] += float64(alloc) / 1e6
	rec.queries++
	rec.embedded[q] += res.stats.EmbeddedTuples
	rec.trees[q] += int64(res.trees)
	rec.resultKB += float64(len(res.xml)) / 1e3
	rec.spilled += res.stats.SpilledRuns
	rec.spilledMB += float64(res.stats.SpilledBytes) / 1e6
	if tr.on {
		rec.execMS[q] = append(rec.execMS[q], msOf(res.eval))
		rec.parseUS = append(rec.parseUS, usOf(res.parse))
		rec.compileUS = append(rec.compileUS, usOf(res.compile))
		rec.planUS = append(rec.planUS, usOf(res.planT))
		rec.decodeUS = append(rec.decodeUS, usOf(res.decode))
		rec.serializeUS = append(rec.serializeUS, usOf(res.serialize))
		rec.evalAllocMB = append(rec.evalAllocMB, float64(res.evalAlloc)/1e6)
		rec.planNodes += res.planNodes
		rec.loopsCosted += res.loopsCosted
		rec.mergeJoinLoops += res.mergeJoinLoops
		rec.seeks += res.seeks
		rec.sources += res.sources
	}
	return lat
}

// peoplePath addresses <people> (the third child of <site>) by child
// ordinals; the benchmark's person is appended there and deleted again.
var peoplePath = []int{0, 2}

// benchPerson is the person every write inserts, drawn from the seed so
// it differs between runs but not within one.
func benchPerson(seed int64) string {
	rng := rand.New(rand.NewSource(seed ^ 0x7e51))
	first := []string{"Ada", "Boris", "Chiara", "Dmitri", "Esi", "Feng"}[rng.Intn(6)]
	last := []string{"Lindqvist", "Obi", "Petrov", "Quispe", "Rahman", "Sato"}[rng.Intn(6)]
	return fmt.Sprintf(`<person id="person_w%d"><name>%s %s</name><emailaddress>mailto:%s@acm.org</emailaddress>`+
		`<profile income="%d"><interest category="category0"/><age>%d</age></profile></person>`,
		rng.Intn(1000), first, last, last, 60000+rng.Intn(60000), 18+rng.Intn(50))
}

// withPerson returns the document's second state: a copy with the
// benchmark's person appended to <people>.
func withPerson(f xmltree.Forest, person string) (xmltree.Forest, error) {
	p, err := xmltree.Parse(person)
	if err != nil {
		return nil, err
	}
	g := f.Copy()
	people := g[0].Children[peoplePath[1]]
	people.Children = append(people.Children, p...)
	return g, nil
}

// writeBlock is the number of consecutive in-process writes whose mean
// latency makes one sample: a single write on the adhoc document takes
// about 8 µs, and timed one by one its median moved by a quarter between
// runs with where the collection cycles fell.
const writeBlock = 16

// writeResult is the outcome of the in-process write phase.
type writeResult struct {
	latMS  []float64 // per block of writes, mean time until Catalog.Update returned
	failed int
	errs   []string
}

// writePhase applies insert/delete pairs of the benchmark's person
// through dixq.Catalog.Update for the given time, checking after the
// first insert that the document is in the second state and after the
// last delete that it is back in the first.
func writePhase(sf float64, seed int64, states [2]xmltree.Forest, person string, length time.Duration,
	tr *tracer, ops *atomic.Int64) writeResult {
	var out writeResult
	fail := func(msg string) {
		out.failed++
		if len(out.errs) < 8 {
			out.errs = append(out.errs, msg)
		}
	}
	want := make([]*dixq.Document, 2)
	for i, f := range states {
		d, err := dixq.ParseDocument(f.String())
		if err != nil {
			fail("parse state: " + err.Error())
			return out
		}
		want[i] = d
	}
	frag, err := dixq.ParseDocument(person)
	if err != nil {
		fail("parse person: " + err.Error())
		return out
	}
	persons, _, _, _, _ := xmark.Counts(sf)
	personPath := append(append([]int(nil), peoplePath...), persons)

	cat := dixq.NewCatalog()
	op := ops.Add(1)
	root := tr.begin(op, -1, "setup")
	s := tr.begin(op, root, "catalog")
	cat.Add(xmark.DocName, dixq.GenerateXMark(sf, seed))
	tr.end(s)
	tr.end(root)

	var blockSum time.Duration
	blockN := 0
	write := func(opName dixq.UpdateOp, path []int, frag *dixq.Document) bool {
		op := ops.Add(1)
		root := tr.begin(op, -1, "write")
		s := tr.begin(op, root, "catalog")
		start := time.Now()
		_, err := cat.Update(xmark.DocName, opName, path, frag)
		lat := time.Since(start)
		tr.end(s)
		tr.end(root)
		if err != nil {
			fail(fmt.Sprintf("%s: %v", opName, err))
			return false
		}
		blockSum += lat
		if blockN++; blockN == writeBlock {
			out.latMS = append(out.latMS, msOf(blockSum)/writeBlock)
			blockSum, blockN = 0, 0
		}
		return true
	}
	current := func() *dixq.Document {
		d, _ := cat.Snapshot().Document(xmark.DocName)
		return d
	}
	deadline := time.Now().Add(length)
	for i := 0; i == 0 || blockN != 0 || time.Now().Before(deadline); i++ {
		if !write(dixq.OpAppendChild, peoplePath, frag) {
			return out
		}
		if i == 0 && !current().Equal(want[1]) {
			fail("after an insert the document is not the second state")
		}
		if !write(dixq.OpDelete, personPath, nil) {
			return out
		}
	}
	if !current().Equal(want[0]) {
		fail("after the last delete the document differs from the initial one")
	}
	return out
}
