// Command xqbench is the repository's benchmark: it runs one XMark
// workload against the engine for a fixed time, checks every answer
// against independent oracles, and prints every metric by name with its
// unit. With --trace 1 it records a span at every layer boundary it calls
// and prints the per-layer metrics instead.
//
// Run it through the wrapper, which builds it first:
//
//	python3 xqbench/run.py --workload suite --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result object; the lines
// before it are the environment stamp and the per-query table, and the
// full report (plus the spans of a traced run) is written under --out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"dixq"
	"dixq/internal/core"
	"dixq/internal/exec"
	"dixq/internal/server"
	"dixq/internal/xmark"
	"dixq/internal/xmltree"
)

// workload is one traffic mix. Every workload runs DI-OPT with the
// document's index and statistics, in a closed loop.
type workload struct {
	name string
	// sf is the XMark scale factor of the generated document.
	sf float64
	// shuffle draws each pass as a seeded permutation of Q1–Q20 instead
	// of the fixed Q1..Q20 order.
	shuffle bool
	// server runs the queries over HTTP against internal/server with two
	// clients, the second writing once per nine reads.
	server bool
	// withSQL adds generated SQL on minisql to the oracles.
	withSQL bool
	// gcEach collects garbage before every in-process query, outside the
	// clock: in the suite so that one query's garbage is not charged to
	// the next, in adhoc because a CLI invocation starts on a clean heap.
	gcEach bool
}

var workloads = []workload{
	{name: "suite", sf: 0.02},
	{name: "adhoc", sf: 0.0002, shuffle: true, withSQL: true},
	{name: "server-rw", sf: 0.005, shuffle: true, server: true},
}

const (
	// docSeed is the XMark generator seed. Like XMark's own generator,
	// the benchmark fixes the document of each scale factor; the run's
	// --seed draws the query order, the clients' interleaving and the
	// inserted person. (At these sizes a per-seed document moves query
	// costs by a fifth, which would drown the changes the benchmark is
	// meant to show.)
	docSeed = 1
	// serverMemBudget is the per-query sort budget of server-rw, small
	// enough that the join and sort queries spill at sf 0.005.
	serverMemBudget = 4 << 10
	// serverMaxConcurrent bounds the requests server-rw admits at once.
	serverMaxConcurrent = 2
	// minSetups and setupBudget bound the repeated set-up: at least
	// minSetups times, and more while the total stays under setupBudget.
	minSetups   = 5
	setupBudget = time.Second
	// writeShare is the part of --seconds given to the in-process write
	// phase; the query window(s) get the rest.
	writeShare = 0.1
	// oracleWorkers is the oracle pass's parallelism.
	oracleWorkers = 2
)

// config is one invocation.
type config struct {
	wl      workload
	seed    int64
	seconds time.Duration
	trace   bool
	out     string
	commit  string
	// corrupt, when set, rewrites each answer's XML before it is checked
	// (tests inject a wrong answer with it).
	corrupt func(query int, xml string) string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// envStamp identifies the machine, toolchain, inputs and code of a run.
type envStamp struct {
	Workload    string  `json:"workload"`
	Seed        int64   `json:"seed"`
	ScaleFactor float64 `json:"scale_factor"`
	Seconds     float64 `json:"seconds"`
	Trace       bool    `json:"trace"`
	NumCPU      int     `json:"num_cpu"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	GitCommit   string  `json:"git_commit"`
	Clients     int     `json:"clients"`
}

// queryRow is one line of the per-query table.
type queryRow struct {
	Query          string  `json:"query"`
	N              int     `json:"n"`
	MedianMS       float64 `json:"median_ms"`
	ExecMS         float64 `json:"exec_ms,omitempty"`
	EmbeddedTuples float64 `json:"embedded_tuples"`
	ResultTrees    float64 `json:"result_trees"`
	AllocMB        float64 `json:"alloc_mb,omitempty"`
}

// report is the full record written under --out.
type report struct {
	Env        envStamp          `json:"env"`
	Result     *result           `json:"result"`
	Queries    []queryRow        `json:"queries"`
	Samples    map[string]int    `json:"samples"`
	Oracles    map[string]any    `json:"oracles"`
	Invariants map[string]any    `json:"invariants"`
	Errors     []string          `json:"errors,omitempty"`
	SetupS     []float64         `json:"setup_s"`
	PassS      []float64         `json:"pass_s"`
	Extra      map[string]metric `json:"extra,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload: suite, adhoc or server-rw")
	seed := flag.Int64("seed", 1, "seed of the generated document and query draws")
	seconds := flag.Float64("seconds", 10, "length of the measured window")
	trace := flag.Int("trace", 0, "1 records layer spans and prints the per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the report and spans")
	commit := flag.String("commit", "unknown", "source revision, for the environment stamp")
	flag.Parse()
	var cfg config
	for _, wl := range workloads {
		if wl.name == *name {
			cfg.wl = wl
		}
	}
	if cfg.wl.name == "" || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "xqbench: usage: --workload suite|adhoc|server-rw --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	cfg.seed, cfg.seconds, cfg.trace = *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1
	cfg.out, cfg.commit = *out, *commit

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqbench:", err)
		os.Exit(1)
	}
	env, _ := json.Marshal(rep.Env)
	fmt.Println("env", string(env))
	for _, r := range rep.Queries {
		fmt.Printf("%-4s n=%-5d median_ms=%-10.4f exec_ms=%-10.4f embedded=%-10.0f trees=%-6.0f alloc_mb=%.4f\n",
			r.Query, r.N, r.MedianMS, r.ExecMS, r.EmbeddedTuples, r.ResultTrees, r.AllocMB)
	}
	for _, e := range rep.Errors {
		fmt.Fprintln(os.Stderr, "xqbench:", e)
	}
	path := filepath.Join(cfg.out, fmt.Sprintf("report-%s-seed%d-trace%d.json", cfg.wl.name, cfg.seed, *trace))
	if data, err := json.MarshalIndent(rep, "", "  "); err == nil {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "xqbench: write report:", err)
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintln(os.Stderr, "xqbench: result:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Result.Correct {
		os.Exit(1)
	}
}

// window is one measured stretch of the workload.
type window struct {
	rec     *recorder
	tracers []*tracer
	elapsed time.Duration
	busy    time.Duration // in-process: time inside queries
	ops     int
	alloc   uint64
	before  map[string]float64 // server metrics at the start
	after   map[string]float64 // and at the end
}

// run executes one invocation: set-up, warm-up, the measured window(s),
// the write phase, then — outside everything timed — the oracles and
// the invariant checks.
func run(cfg config) (*report, error) {
	if err := os.MkdirAll(cfg.out, 0o755); err != nil {
		return nil, err
	}
	wl := cfg.wl
	clients := 1
	if wl.server {
		clients = 2
	}
	rep := &report{
		Env: envStamp{
			Workload: wl.name, Seed: cfg.seed, ScaleFactor: wl.sf, Seconds: cfg.seconds.Seconds(),
			Trace: cfg.trace, NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			GoVersion: runtime.Version(), GitCommit: cfg.commit, Clients: clients,
		},
		Samples:    map[string]int{},
		Oracles:    map[string]any{},
		Invariants: map[string]any{},
	}
	epoch := time.Now()
	var ops atomic.Int64

	spill := filepath.Join(cfg.out, fmt.Sprintf("spill-%d", os.Getpid()))
	scfg := server.Config{MemBudget: serverMemBudget, MaxConcurrent: serverMaxConcurrent, SpillDir: spill}
	if wl.server {
		if err := os.MkdirAll(spill, 0o755); err != nil {
			return nil, err
		}
		defer os.RemoveAll(spill)
	}

	// Set-up, repeated; setup_s is the median. On server-rw the server
	// generates, encodes, indexes and collects statistics for its own copy
	// of the document, so only starting it is timed there; the
	// benchmark's in-process copy, which feeds the oracles and the
	// catalog-layer timings, is built outside the clock.
	var d *docState
	var ls *liveServer
	var layer []setupTimes
	setupStart := time.Now()
	for i := 0; i < minSetups || (time.Since(setupStart) < setupBudget && i < 100); i++ {
		if ls != nil {
			if err := ls.stop(); err != nil {
				return nil, err
			}
			ls = nil
		}
		// Every set-up starts from the same heap: nothing of the last one
		// stays live.
		d = nil
		runtime.GC()
		start := time.Now()
		var lt setupTimes
		d, lt = buildState(wl.sf, docSeed)
		if wl.server {
			runtime.GC()
			start = time.Now()
			var err error
			if ls, err = startServer(wl.sf, docSeed, scfg); err != nil {
				return nil, err
			}
		}
		rep.SetupS = append(rep.SetupS, time.Since(start).Seconds())
		layer = append(layer, lt)
	}
	person := benchPerson(cfg.seed)
	state1, err := withPerson(d.forest, person)
	if err != nil {
		return nil, err
	}
	states := [2]xmltree.Forest{d.forest, state1}
	persons, _, _, _, _ := xmark.Counts(wl.sf)
	w := &writer{person: person, personPath: append(append([]int(nil), peoplePath...), persons)}

	opts := core.Options{Parallelism: 1}
	client := newHTTPClient()
	defer client.CloseIdleConnections()

	// measure runs one window of the given length.
	measure := func(length time.Duration, traced bool) window {
		win := window{}
		runtime.GC()
		if ls != nil {
			win.before, _ = scrape(client, ls.url)
		}
		allocStart := heapAllocBytes()
		opsStart := ops.Load()
		start := time.Now()
		deadline := start.Add(length)
		if !wl.server {
			var rng *rand.Rand
			if wl.shuffle {
				rng = rand.New(rand.NewSource(cfg.seed * 7919))
			}
			tr := newTracer(traced, epoch)
			win.rec, win.busy = localWindow(d, opts, rng, deadline, tr, &ops, cfg.corrupt)
			win.tracers = []*tracer{tr}
		} else {
			recs := make([]*recorder, clients)
			win.tracers = make([]*tracer, clients)
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				var cw *writer
				if c == 1 {
					cw = w
				}
				rng := rand.New(rand.NewSource(cfg.seed*7919 + int64(c)*104729))
				win.tracers[c] = newTracer(traced, epoch)
				wg.Add(1)
				go func(c int, cw *writer, rng *rand.Rand) {
					defer wg.Done()
					recs[c] = serverClient(client, ls.url, c, rng, cw, deadline, win.tracers[c], &ops, cfg.corrupt)
				}(c, cw, rng)
			}
			wg.Wait()
			win.rec = newRecorder()
			for _, r := range recs {
				win.rec.merge(r)
			}
		}
		win.elapsed = time.Since(start)
		win.ops = int(ops.Load() - opsStart)
		win.alloc = heapAllocBytes() - allocStart
		if ls != nil {
			win.after, _ = scrape(client, ls.url)
		}
		return win
	}

	// Warm-up: one untimed pass, so lazy initialization and caches are
	// settled before the clock runs. Its answers are checked too.
	warm := newRecorder()
	for q := 0; q < numQueries; q++ {
		if wl.server {
			serverRead(client, ls.url, q, newTracer(false, epoch), ops.Add(1), warm, cfg.corrupt)
		} else {
			localQuery(d, opts, q, newTracer(false, epoch), ops.Add(1), warm, cfg.corrupt)
		}
	}

	exec.ResetHighWater()
	var measured, untraced, traced window
	reads := time.Duration(float64(cfg.seconds) * (1 - writeShare))
	// Peak RSS is read before the spans of a traced run take memory.
	var peakRSS float64
	if cfg.trace {
		untraced = measure(reads/2, false)
		peakRSS = peakRSSMB()
		traced = measure(reads/2, true)
		measured = traced
	} else {
		measured = measure(reads, false)
		peakRSS = peakRSSMB()
	}
	highWater, limit := exec.HighWater(), exec.Limit()

	// The write phase: in-process Catalog.Update pairs on every workload.
	wtr := newTracer(cfg.trace, epoch)
	wr := writePhase(wl.sf, docSeed, states, person, cfg.seconds-reads, wtr, &ops)

	// Server shutdown and its fail-closed invariants.
	failed := warm.failed + measured.rec.failed + wr.failed
	if untraced.rec != nil {
		failed += untraced.rec.failed
	}
	var invariantErrs []string
	if wl.server {
		if w.inserted {
			rec := newRecorder()
			serverWrite(client, ls.url, w, newTracer(false, epoch), ops.Add(1), rec)
			failed += rec.failed
		}
		final, _ := ls.srv.Catalog().Snapshot().Document(xmark.DocName)
		initial, err := parseDixq(d.forest)
		if err != nil {
			return nil, err
		}
		peak := ls.srv.PeakConcurrent()
		stopErr := ls.stop()
		left, _ := os.ReadDir(spill)
		rep.Invariants["peak_admitted"] = peak
		rep.Invariants["max_concurrent"] = serverMaxConcurrent
		rep.Invariants["final_equals_initial"] = final != nil && final.Equal(initial)
		rep.Invariants["spill_files_left"] = len(left)
		if peak > serverMaxConcurrent {
			invariantErrs = append(invariantErrs, fmt.Sprintf("peak admitted %d exceeds MaxConcurrent %d", peak, serverMaxConcurrent))
		}
		if final == nil || !final.Equal(initial) {
			invariantErrs = append(invariantErrs, "final document differs from the initial one")
		}
		if len(left) != 0 {
			invariantErrs = append(invariantErrs, fmt.Sprintf("%d spill files left after the run", len(left)))
		}
		if stopErr != nil {
			invariantErrs = append(invariantErrs, "server shutdown: "+stopErr.Error())
		}
	}
	rep.Invariants["worker_high_water"] = highWater
	rep.Invariants["worker_limit"] = limit
	if highWater > limit {
		invariantErrs = append(invariantErrs, fmt.Sprintf("worker high water %d exceeds the limit %d", highWater, limit))
	}

	// The correctness gate, outside everything timed.
	nStates := 1
	if wl.server {
		nStates = 2
	}
	or := runOracles(states[:nStates], wl.withSQL, oracleWorkers)
	rep.Oracles["disagreements"] = len(or.errs)
	rep.Oracles["sql_checked"] = or.SQLChecked
	rep.Oracles["sql_unsupported"] = or.SQLUnsupported
	rep.Oracles["states"] = nStates
	seen := newRecorder()
	for _, r := range []*recorder{warm, untraced.rec, measured.rec} {
		if r != nil {
			for k, v := range r.seen {
				seen.seen[k] += v
			}
		}
	}
	wrong, checked := 0, map[int]bool{}
	for k, n := range seen.seen {
		ok := false
		for s := 0; s < nStates; s++ {
			exp := or.Answers[s][k.query]
			if k.xml == exp.XML && (wl.server || k.rel == exp.Rel) {
				ok = true
			}
		}
		if ok {
			checked[k.query] = true
		} else {
			wrong += n
			rep.Errors = append(rep.Errors, fmt.Sprintf("%s: %d answers differ from the oracles", queryName(k.query), n))
		}
	}
	rep.Oracles["queries_checked"] = len(checked)
	rep.Oracles["wrong_answers"] = wrong
	failed += wrong

	attempted := int(ops.Load())
	correct := failed == 0 && len(or.errs) == 0 && len(invariantErrs) == 0 && len(checked) == numQueries
	rep.Errors = append(rep.Errors, or.errs...)
	rep.Errors = append(rep.Errors, invariantErrs...)
	for _, r := range []*recorder{warm, untraced.rec, measured.rec} {
		if r != nil {
			rep.Errors = append(rep.Errors, r.errs...)
		}
	}
	rep.Errors = append(rep.Errors, wr.errs...)

	rec := measured.rec
	writes := rec.writesMS
	if !wl.server {
		writes = wr.latMS
	}
	lat := rec.allLatencies()
	rep.Samples["queries"] = len(lat)
	rep.Samples["writes"] = len(writes)
	rep.Samples["passes"] = len(rec.passes)
	rep.Samples["setups"] = len(rep.SetupS)
	rep.Queries = queryRows(rec)
	rep.PassS = rec.passes

	m := map[string]metric{}
	if !cfg.trace {
		m["setup_s"] = metric{quantile(rep.SetupS, 0.5), "s"}
		m["suite_pass_s"] = metric{quantile(rec.passes, 0.5), "s"}
		m["query_geomean_ms"] = metric{geomeanOfMedians(rec.latMS), "ms"}
		m["query_p50_ms"] = metric{quantile(lat, 0.5), "ms"}
		// One in-process client is busy only inside queries; the server
		// workload's clients overlap, so its rate is over the wall window.
		busy := measured.elapsed
		if !wl.server {
			busy = measured.busy
		}
		m["throughput_qps"] = metric{float64(rec.ok) / busy.Seconds(), "ops/s"}
		m["write_p50_ms"] = metric{quantile(writes, 0.5), "ms"}
		m["alloc_mb_per_op"] = metric{float64(measured.alloc) / 1e6 / float64(max(measured.ops, 1)), "MB"}
	} else {
		// The tails and the peak RSS are reported here, without a bound:
		// on a 2-vCPU virtual machine whose host steals up to a fifth of
		// the CPU, their run-to-run spread (adhoc's query p99 0.3–0.6 of
		// its median, its write p95 and peak RSS up to 0.35) exceeds the
		// largest bound BENCHMARK.json may set. The query tail and peak
		// come from the untraced half. p95, not p99, for writes: server-rw
		// acknowledges only about 400 of them in a 30-s run.
		m["query_p99_ms"] = metric{quantile(untraced.rec.allLatencies(), 0.99), "ms"}
		m["write_p95_ms"] = metric{quantile(writes, 0.95), "ms"}
		m["peak_rss_mb"] = metric{peakRSS, "MB"}
		layerMetrics(m, rec, measured, layer, wr, highWater)
		self, entered := selfTimes(append(append([]*tracer(nil), measured.tracers...), wtr))
		for _, l := range layerNames {
			v := 0.0
			if entered[l] > 0 {
				v = msOf(self[l]) / float64(entered[l])
			}
			m[l+".self_ms"] = metric{v, "ms"}
		}
		m["trace.overhead_pct"] = metric{100 * (geomeanOfMedians(traced.rec.latMS)/geomeanOfMedians(untraced.rec.latMS) - 1), "%"}
		spans := filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.json", wl.name, cfg.seed))
		if err := writeSpans(spans, append(measured.tracers, wtr)); err != nil {
			return nil, err
		}
	}
	m["failed_frac"] = metric{float64(failed) / float64(max(attempted, 1)), "ratio"}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			rep.Errors = append(rep.Errors, "metric "+name+" has no value (too few samples)")
			correct = false
			v.Value = 0
			m[name] = v
		}
	}
	rep.Result = &result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: m}
	if !cfg.trace {
		// failed_frac is reported through attempted/failed: the end-to-end
		// set of BENCHMARK.json holds only metrics that are never zero.
		rep.Extra = map[string]metric{"failed_frac": m["failed_frac"], "peak_rss_mb": {peakRSS, "MB"},
			"query_p99_ms": {quantile(lat, 0.99), "ms"},
			"write_p95_ms": {quantile(writes, 0.95), "ms"}, "write_p99_ms": {quantile(writes, 0.99), "ms"}}
		delete(m, "failed_frac")
	}
	return rep, nil
}

// layerMetrics fills the per-layer metrics of a traced run from its
// traced window.
func layerMetrics(m map[string]metric, rec *recorder, win window, layer []setupTimes, wr writeResult, highWater int) {
	per := func(total float64) float64 { return total / float64(max(rec.queries, 1)) }
	zeroNaN := func(v float64) float64 {
		if math.IsNaN(v) {
			return 0
		}
		return v
	}
	m["xq.parse_us"] = metric{zeroNaN(quantile(rec.parseUS, 0.5)), "us"}
	m["core.compile_us"] = metric{zeroNaN(quantile(rec.compileUS, 0.5)), "us"}
	m["core.plan_us"] = metric{zeroNaN(quantile(rec.planUS, 0.5)), "us"}
	m["plan.nodes"] = metric{per(float64(rec.planNodes)), "count"}
	m["opt.loops_costed"] = metric{per(float64(rec.loopsCosted)), "count"}
	m["opt.merge_join_loops"] = metric{per(float64(rec.mergeJoinLoops)), "count"}
	seekShare := 0.0
	if rec.sources > 0 {
		seekShare = float64(rec.seeks) / float64(rec.sources)
	}
	m["index.seek_share"] = metric{seekShare, "ratio"}

	var execAll []float64
	var embedded, trees int64
	for q := 0; q < numQueries; q++ {
		execAll = append(execAll, rec.execMS[q]...)
		embedded += rec.embedded[q]
		trees += rec.trees[q]
		m[fmt.Sprintf("exec.q%d_ms", q+1)] = metric{zeroNaN(quantile(rec.execMS[q], 0.5)), "ms"}
	}
	m["exec.eval_ms"] = metric{mean(execAll), "ms"}
	m["exec.embedded_tuples"] = metric{per(float64(embedded)), "count"}
	embPerTree := 0.0
	if trees > 0 {
		embPerTree = float64(embedded) / float64(trees)
	}
	m["exec.embedded_per_tree"] = metric{embPerTree, "ratio"}
	m["exec.alloc_mb"] = metric{mean(rec.evalAllocMB), "MB"}
	m["exec.worker_high_water"] = metric{float64(highWater), "count"}
	m["extsort.spilled_runs"] = metric{per(float64(rec.spilled)), "count"}
	m["extsort.spilled_mb"] = metric{per(rec.spilledMB), "MB"}
	m["interval.decode_us"] = metric{zeroNaN(quantile(rec.decodeUS, 0.5)), "us"}
	m["xmltree.serialize_us"] = metric{zeroNaN(quantile(rec.serializeUS, 0.5)), "us"}
	m["result.kb"] = metric{per(rec.resultKB), "KB"}

	delta := func(name string) float64 {
		if win.before == nil || win.after == nil {
			return 0
		}
		return win.after[name] - win.before[name]
	}
	requests := float64(max(rec.ok+rec.failed, 1))
	m["server.overhead_ms"] = metric{zeroNaN(quantile(rec.overheadMS, 0.5)), "ms"}
	m["server.admission_wait_ms"] = metric{1e3 * delta("dixq_admission_wait_seconds_sum") / requests, "ms"}
	hitRatio := 0.0
	if lookups := delta("dixq_plan_cache_hits_total") + delta("dixq_plan_cache_misses_total"); lookups > 0 {
		hitRatio = delta("dixq_plan_cache_hits_total") / lookups
	}
	m["server.plan_cache_hit_ratio"] = metric{hitRatio, "ratio"}
	m["server.scan_fallbacks"] = metric{delta("dixq_index_scan_fallbacks_total") / requests, "count"}
	rejected := 0.0
	if win.before != nil {
		rejected = float64(rec.rejected) / requests
	}
	m["server.rejected_frac"] = metric{rejected, "ratio"}

	var enc, build, collect []float64
	for _, t := range layer {
		enc = append(enc, msOf(t.encode))
		build = append(build, msOf(t.build))
		collect = append(collect, msOf(t.collect))
	}
	m["catalog.update_ms"] = metric{zeroNaN(quantile(wr.latMS, 0.5)), "ms"}
	m["index.build_ms"] = metric{quantile(build, 0.5), "ms"}
	m["stats.collect_ms"] = metric{quantile(collect, 0.5), "ms"}
	m["interval.encode_ms"] = metric{quantile(enc, 0.5), "ms"}
}

// queryRows is the per-query table: latency, execute time, embedded
// tuples, result trees and allocations, per operation.
func queryRows(rec *recorder) []queryRow {
	rows := make([]queryRow, 0, numQueries)
	for q := 0; q < numQueries; q++ {
		n := len(rec.latMS[q])
		row := queryRow{Query: queryName(q), N: n}
		if n > 0 {
			row.MedianMS = quantile(rec.latMS[q], 0.5)
			row.EmbeddedTuples = float64(rec.embedded[q]) / float64(n)
			row.ResultTrees = float64(rec.trees[q]) / float64(n)
		}
		if len(rec.execMS[q]) > 0 {
			row.ExecMS = quantile(rec.execMS[q], 0.5)
		}
		if n > 0 {
			row.AllocMB = rec.allocMB[q] / float64(n)
		}
		rows = append(rows, row)
	}
	return rows
}

// newHTTPClient returns a keep-alive client with its own transport, so
// closing its idle connections at the end leaves nothing open.
func newHTTPClient() *http.Client {
	return &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true},
	}
}

// parseDixq converts a forest to a dixq.Document, for comparison with
// catalog documents.
func parseDixq(f xmltree.Forest) (*dixq.Document, error) { return dixq.ParseDocument(f.String()) }

// peakRSSMB reads the process's peak resident set (VmHWM) in MB, falling
// back to the Go runtime's total mapped memory where /proc is absent.
func peakRSSMB() float64 {
	if data, err := os.ReadFile("/proc/self/status"); err == nil {
		if mb, ok := parseVmHWM(string(data)); ok {
			return mb
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / 1e6
}

// parseVmHWM finds the VmHWM line of a /proc/<pid>/status text and
// returns its value in MB.
func parseVmHWM(status string) (float64, bool) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				return 0, false
			}
			kb, err := strconv.ParseFloat(f[0], 64)
			return kb / 1024, err == nil
		}
	}
	return 0, false
}
