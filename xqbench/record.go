package main

import (
	"math"
	"sort"
	"time"

	"dixq/internal/xmark"
)

const numQueries = 20

// tallyKey is one distinct answer seen for a query: the relation digest
// (0 for answers that arrive as XML over HTTP) and the XML digest.
type tallyKey struct {
	query    int
	rel, xml uint64
}

// recorder collects one client's measurements in one window. Only its
// own goroutine writes it; windows are merged after the clients stop.
type recorder struct {
	latMS    [numQueries][]float64 // per query, client-observed latency
	passes   []float64             // seconds per complete Q1–Q20 pass
	writesMS []float64
	ok       int
	failed   int
	rejected int
	seen     map[tallyKey]int
	errs     []string

	// Layer measurements: filled by in-process queries (all runs) and
	// by traced runs where noted.
	execMS    [numQueries][]float64 // traced in-process; server-side elapsed over HTTP
	allocMB   [numQueries]float64   // summed over operations, in-process
	embedded  [numQueries]int64     // summed per query
	trees     [numQueries]int64
	resultKB  float64
	queries   int
	spilled   int64
	spilledMB float64

	parseUS, compileUS, planUS, decodeUS, serializeUS []float64 // traced
	evalAllocMB                                       []float64 // traced
	planNodes, loopsCosted, mergeJoinLoops            int       // traced
	seeks, sources                                    int       // traced
	overheadMS                                        []float64 // server: client latency minus elapsed_ms
}

func newRecorder() *recorder { return &recorder{seen: map[tallyKey]int{}} }

// fail records a failed operation with its reason (the first few
// reasons are kept for the report).
func (r *recorder) fail(msg string) {
	r.failed++
	if len(r.errs) < 8 {
		r.errs = append(r.errs, msg)
	}
}

// merge folds other into r.
func (r *recorder) merge(o *recorder) {
	for q := 0; q < numQueries; q++ {
		r.latMS[q] = append(r.latMS[q], o.latMS[q]...)
		r.execMS[q] = append(r.execMS[q], o.execMS[q]...)
		r.allocMB[q] += o.allocMB[q]
		r.embedded[q] += o.embedded[q]
		r.trees[q] += o.trees[q]
	}
	r.passes = append(r.passes, o.passes...)
	r.writesMS = append(r.writesMS, o.writesMS...)
	r.ok += o.ok
	r.failed += o.failed
	r.rejected += o.rejected
	for k, v := range o.seen {
		r.seen[k] += v
	}
	for _, e := range o.errs {
		if len(r.errs) < 8 {
			r.errs = append(r.errs, e)
		}
	}
	r.resultKB += o.resultKB
	r.queries += o.queries
	r.spilled += o.spilled
	r.spilledMB += o.spilledMB
	r.parseUS = append(r.parseUS, o.parseUS...)
	r.compileUS = append(r.compileUS, o.compileUS...)
	r.planUS = append(r.planUS, o.planUS...)
	r.decodeUS = append(r.decodeUS, o.decodeUS...)
	r.serializeUS = append(r.serializeUS, o.serializeUS...)
	r.evalAllocMB = append(r.evalAllocMB, o.evalAllocMB...)
	r.planNodes += o.planNodes
	r.loopsCosted += o.loopsCosted
	r.mergeJoinLoops += o.mergeJoinLoops
	r.seeks += o.seeks
	r.sources += o.sources
	r.overheadMS = append(r.overheadMS, o.overheadMS...)
}

// allLatencies returns every query latency, in milliseconds.
func (r *recorder) allLatencies() []float64 {
	var out []float64
	for q := 0; q < numQueries; q++ {
		out = append(out, r.latMS[q]...)
	}
	return out
}

// geomeanOfMedians is the geometric mean over Q1–Q20 of each query's
// median latency; every query counts once whatever its share of the time.
// It is NaN when some query has no sample.
func geomeanOfMedians(lat [numQueries][]float64) float64 {
	sum := 0.0
	for q := 0; q < numQueries; q++ {
		m := quantile(lat[q], 0.5)
		if !(m > 0) {
			return math.NaN()
		}
		sum += math.Log(m)
	}
	return math.Exp(sum / numQueries)
}

// quantile returns the Harrell–Davis estimate of the q-quantile of xs
// (NaN for no samples): a weighted mean of the order statistics with
// weights from the Beta(q(n+1), (1-q)(n+1)) distribution. Where a mixed
// workload's median falls between two queries' latencies, as the suite's
// query_p50_ms does, interpolating between two order statistics jumps
// from one query's latency to the other's from run to run; this estimate
// moves smoothly and halves that metric's run-to-run spread. xs is not
// modified.
func quantile(xs []float64, q float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	a, b := q*float64(n+1), (1-q)*float64(n+1)
	// Weights more than a dozen standard deviations of the Beta
	// distribution away from q are below float precision.
	sd := math.Sqrt(q * (1 - q) / float64(n+2))
	lo := max(0, int(math.Floor((q-12*sd)*float64(n))))
	hi := min(n, int(math.Ceil((q+12*sd)*float64(n)))+1)
	sum := 0.0
	prev := betaInc(a, b, float64(lo)/float64(n))
	for i := lo; i < hi; i++ {
		cur := betaInc(a, b, float64(i+1)/float64(n))
		sum += (cur - prev) * s[i]
		prev = cur
	}
	return sum
}

// betaInc is the regularized incomplete beta function I_x(a, b).
func betaInc(a, b, x float64) float64 {
	if x <= 0 {
		return 0
	}
	if x >= 1 {
		return 1
	}
	la, _ := math.Lgamma(a)
	lb, _ := math.Lgamma(b)
	lab, _ := math.Lgamma(a + b)
	front := math.Exp(a*math.Log(x) + b*math.Log1p(-x) + lab - la - lb)
	if x < (a+1)/(a+b+2) {
		return front * betaFrac(a, b, x) / a
	}
	return 1 - front*betaFrac(b, a, 1-x)/b
}

// betaFrac evaluates the continued fraction of the incomplete beta
// function by the modified Lentz method.
func betaFrac(a, b, x float64) float64 {
	const eps, tiny = 1e-15, 1e-300
	clamp := func(v float64) float64 {
		if math.Abs(v) < tiny {
			return tiny
		}
		return v
	}
	c, d := 1.0, 1/clamp(1-(a+b)*x/(a+1))
	h := d
	for m := 1.0; m <= 100000; m++ {
		aa := m * (b - m) * x / ((a + 2*m - 1) * (a + 2*m))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		h *= d * c
		aa = -(a + m) * (a + b + m) * x / ((a + 2*m) * (a + 2*m + 1))
		d = 1 / clamp(1+aa*d)
		c = clamp(1 + aa/c)
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func msOf(d time.Duration) float64 { return float64(d) / 1e6 }
func usOf(d time.Duration) float64 { return float64(d) / 1e3 }

// queryName is the XMark name of query index q.
func queryName(q int) string { return xmark.All[q].Name }
