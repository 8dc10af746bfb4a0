package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dixq"
	"dixq/internal/server"
	"dixq/internal/xmark"
)

// liveServer is internal/server behind a real loopback listener.
type liveServer struct {
	srv    *server.Server
	hs     *http.Server
	url    string
	served chan error
}

// startServer loads the generated document into a new server and serves
// it on an ephemeral loopback port.
func startServer(sf float64, seed int64, cfg server.Config) (*liveServer, error) {
	srv := server.New(map[string]*dixq.Document{xmark.DocName: dixq.GenerateXMark(sf, seed)}, cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	ls := &liveServer{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler()},
		url:    "http://" + ln.Addr().String(),
		served: make(chan error, 1),
	}
	go func() { ls.served <- ls.hs.Serve(ln) }()
	return ls, nil
}

// stop shuts the listener down, waits for the serving goroutine and
// in-flight requests, and stops the background reindexer.
func (ls *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := ls.hs.Shutdown(ctx)
	if serr := <-ls.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	ls.srv.Close()
	return err
}

// post sends one JSON request and decodes a 200 reply into out. It
// returns the HTTP status (0 when the request itself failed).
func post(c *http.Client, url string, body, out any) (int, error) {
	data, err := json.Marshal(body)
	if err != nil {
		return 0, err
	}
	resp, err := c.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
	}
	return resp.StatusCode, json.Unmarshal(raw, out)
}

// scrape reads the unlabelled series of GET /metrics.
func scrape(c *http.Client, base string) (map[string]float64, error) {
	resp, err := c.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.ContainsRune(line, '{') {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out, sc.Err()
}

// writer is the second client's write schedule: it alternates inserting
// and deleting the benchmark's person, so the document is always in one
// of exactly two states.
type writer struct {
	person     string
	personPath []int
	inserted   bool
}

func (w *writer) next() server.UpdateRequest {
	if w.inserted {
		return server.UpdateRequest{Op: string(dixq.OpDelete), Path: w.personPath}
	}
	return server.UpdateRequest{Op: string(dixq.OpAppendChild), Path: peoplePath, XML: w.person}
}

// serverClient runs one closed-loop client until deadline. Reads are
// seeded draws from Q1–Q20; with w set, every tenth operation is a write
// instead (one write per nine reads). Only client 0 records pass times.
func serverClient(c *http.Client, base string, id int, rng *rand.Rand, w *writer, deadline time.Time,
	tr *tracer, ops *atomic.Int64, corrupt func(int, string) string) *recorder {
	rec := newRecorder()
	var deck []int
	var passStart time.Time
	for i := 0; time.Now().Before(deadline); i++ {
		if w != nil && i%10 == 9 {
			serverWrite(c, base, w, tr, ops.Add(1), rec)
			continue
		}
		if len(deck) == 0 {
			if id == 0 && !passStart.IsZero() {
				rec.passes = append(rec.passes, time.Since(passStart).Seconds())
			}
			deck, passStart = passOrder(rng), time.Now()
		}
		q := deck[0]
		deck = deck[1:]
		serverRead(c, base, q, tr, ops.Add(1), rec, corrupt)
	}
	return rec
}

func serverRead(c *http.Client, base string, q int, tr *tracer, op int64, rec *recorder, corrupt func(int, string) string) {
	var reply server.QueryResponse
	start := time.Now()
	root := tr.begin(op, -1, "read")
	s := tr.begin(op, root, "server")
	status, err := post(c, base+"/query", server.QueryRequest{Query: xmark.All[q].Text}, &reply)
	tr.end(s)
	tr.end(root)
	lat := time.Since(start)
	if status == http.StatusTooManyRequests {
		rec.rejected++
	}
	if err != nil {
		rec.fail(fmt.Sprintf("%s: %v", queryName(q), err))
		return
	}
	xml := reply.XML
	if corrupt != nil {
		xml = corrupt(q, xml)
	}
	rec.ok++
	rec.seen[tallyKey{query: q, xml: xmlDigest(xml)}]++
	rec.latMS[q] = append(rec.latMS[q], msOf(lat))
	rec.execMS[q] = append(rec.execMS[q], reply.ElapsedMS)
	rec.overheadMS = append(rec.overheadMS, msOf(lat)-reply.ElapsedMS)
	rec.queries++
	rec.trees[q] += int64(reply.Trees)
	rec.resultKB += float64(len(reply.XML)) / 1e3
	if st := reply.Stats; st != nil {
		rec.embedded[q] += st.EmbeddedTuples
		rec.spilled += st.SpilledRuns
		rec.spilledMB += float64(st.SpilledBytes) / 1e6
	}
}

func serverWrite(c *http.Client, base string, w *writer, tr *tracer, op int64, rec *recorder) {
	var reply server.DocResponse
	start := time.Now()
	root := tr.begin(op, -1, "write")
	s := tr.begin(op, root, "server")
	status, err := post(c, base+"/docs/"+xmark.DocName, w.next(), &reply)
	tr.end(s)
	tr.end(root)
	lat := time.Since(start)
	if status == http.StatusTooManyRequests {
		rec.rejected++
	}
	if err != nil {
		rec.fail(fmt.Sprintf("write: %v", err))
		return
	}
	w.inserted = !w.inserted
	rec.ok++
	rec.writesMS = append(rec.writesMS, msOf(lat))
}
