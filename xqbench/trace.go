package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// The layers a span can name, after the modules whose exported functions
// the benchmark calls. Root spans ("query", "read", "write", "setup") are
// the operations themselves.
var layerNames = []string{
	"xq", "core.compile", "core.plan", "exec",
	"interval.decode", "xmltree.serialize", "server", "catalog",
}

// span is one timed call at a layer boundary. The spans of one operation
// share Op; Parent indexes the enclosing span in the same tracer (-1 for
// an operation's root).
type span struct {
	Op     int64  `json:"op"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps the spans of one client goroutine in memory. A tracer that
// is off records nothing and reads no clock, so the untraced path runs
// the same calls without the instrumentation.
type tracer struct {
	on    bool
	epoch time.Time
	spans []span
}

func newTracer(on bool, epoch time.Time) *tracer { return &tracer{on: on, epoch: epoch} }

// begin opens a span and returns its handle (-1 when tracing is off).
func (t *tracer) begin(op int64, parent int, name string) int {
	if !t.on {
		return -1
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Op: op, ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	return id
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = int64(time.Since(t.epoch))
	}
}

// dur returns a closed span's duration.
func (t *tracer) dur(id int) time.Duration {
	if id < 0 {
		return 0
	}
	return time.Duration(t.spans[id].End - t.spans[id].Start)
}

// selfTimes returns, per span name, the summed self time (a span's
// duration minus the part of it its children cover) and the number of
// distinct operations that entered a span of that name.
func selfTimes(tracers []*tracer) (self map[string]time.Duration, ops map[string]int) {
	self, ops = map[string]time.Duration{}, map[string]int{}
	for _, t := range tracers {
		children := make([][]int, len(t.spans))
		for i, s := range t.spans {
			if s.Parent >= 0 {
				children[s.Parent] = append(children[s.Parent], i)
			}
		}
		seen := map[string]int64{}
		for i, s := range t.spans {
			self[s.Name] += time.Duration(s.End-s.Start) - covered(t.spans, children[i])
			if last, ok := seen[s.Name]; !ok || last != s.Op {
				ops[s.Name]++
				seen[s.Name] = s.Op
			}
		}
	}
	return self, ops
}

// covered is the length of the union of the child spans' intervals.
func covered(spans []span, kids []int) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, len(kids))
	for i, k := range kids {
		iv[i] = [2]int64{spans[k].Start, spans[k].End}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := iv[0]
	for _, x := range iv[1:] {
		if x[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = x
		} else if x[1] > cur[1] {
			cur[1] = x[1]
		}
	}
	return time.Duration(total + cur[1] - cur[0])
}

// writeSpans writes every tracer's spans to one JSON file, renumbering
// span IDs so they are unique across tracers.
func writeSpans(path string, tracers []*tracer) error {
	var all []span
	for _, t := range tracers {
		base := len(all)
		for _, s := range t.spans {
			s.ID += base
			if s.Parent >= 0 {
				s.Parent += base
			}
			all = append(all, s)
		}
	}
	data, err := json.Marshal(map[string]any{"spans": all})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
