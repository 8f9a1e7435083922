package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"light/internal/server"
)

// outcome classifies one op. Everything but okOp counts as failed.
type outcome int

const (
	okOp         outcome = iota
	refusedOp            // 429: the governor refused admission
	serverErrOp          // 5xx
	badStatusOp          // any other non-200 status
	transportOp          // the request or in-process call did not complete
	wrongCountOp         // 200 with a result that disagrees with the oracle
)

// classify maps an HTTP exchange to its outcome before any result check.
func classify(status int, err error) outcome {
	switch {
	case err != nil:
		return transportOp
	case status == http.StatusOK:
		return okOp
	case status == http.StatusTooManyRequests:
		return refusedOp
	case status >= 500:
		return serverErrOp
	default:
		return badStatusOp
	}
}

// tally counts ops by outcome. Every op attempted is counted exactly
// once, so a refused or wrong op is failed, never dropped.
type tally struct {
	attempted, failed, refused int
}

func (t *tally) record(o outcome) {
	t.attempted++
	if o != okOp {
		t.failed++
	}
	if o == refusedOp {
		t.refused++
	}
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.refused += o.refused
}

// Headers carrying trace identifiers from the client to the handler
// wrapper.
const (
	hdrOp     = "X-Perfbench-Op"
	hdrParent = "X-Perfbench-Parent"
	hdrSpan   = "X-Perfbench-Span"
)

// client issues JSON requests to the service under test.
type client struct {
	base string
	hc   *http.Client
}

// exchange is one completed HTTP round trip.
type exchange struct {
	status     int
	body       []byte
	start, end time.Time
	handler    int64 // span id the handler wrapper records under, 0 untraced
	err        error
}

// post sends body as JSON to path and reads the whole response. When
// tr is non-nil it records the round trip as an "http" span under
// parent and asks the handler wrapper to record its span under it.
func (c *client) post(tr *tracer, op, parent int64, path string, body any) exchange {
	var ex exchange
	data, err := json.Marshal(body)
	if err != nil {
		ex.err = err
		return ex
	}
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(data))
	if err != nil {
		ex.err = err
		return ex
	}
	req.Header.Set("Content-Type", "application/json")
	var rt int64
	if tr != nil {
		rt, ex.handler = tr.id(), tr.id()
		req.Header.Set(hdrOp, strconv.FormatInt(op, 10))
		req.Header.Set(hdrParent, strconv.FormatInt(rt, 10))
		req.Header.Set(hdrSpan, strconv.FormatInt(ex.handler, 10))
	}
	ex.start = time.Now()
	resp, err := c.hc.Do(req)
	if err == nil {
		ex.status = resp.StatusCode
		ex.body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	ex.end = time.Now()
	ex.err = err
	if tr != nil {
		tr.record(span{ID: rt, Parent: parent, Op: op, Name: "http " + path, Layer: "http",
			Start: tr.at(ex.start), End: tr.at(ex.end)})
	}
	return ex
}

// stats reads the server's /stats.
func (c *client) stats() (server.StatsResponse, error) {
	var s server.StatsResponse
	resp, err := c.hc.Get(c.base + "/stats")
	if err != nil {
		return s, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return s, fmt.Errorf("GET /stats: status %d", resp.StatusCode)
	}
	err = json.NewDecoder(resp.Body).Decode(&s)
	return s, err
}

// traceHandler wraps the service handler and records one "server" span
// per request that carries trace headers, under the client's round-trip
// span. The tracer is read per request so one server can serve an
// untraced and then a traced window.
func traceHandler(h http.Handler, cur *atomic.Pointer[tracer]) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tr := cur.Load()
		sid, err := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
		if tr == nil || err != nil {
			h.ServeHTTP(w, r)
			return
		}
		op, _ := strconv.ParseInt(r.Header.Get(hdrOp), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(hdrParent), 10, 64)
		start := time.Now()
		h.ServeHTTP(w, r)
		tr.record(span{ID: sid, Parent: parent, Op: op, Name: "handler " + r.URL.Path, Layer: "server",
			Start: tr.at(start), End: tr.at(time.Now())})
	})
}

// enumerateLine is one NDJSON line of an /enumerate stream: a row or
// the trailer.
type enumerateLine struct {
	Mapping   []uint32 `json:"mapping"`
	Done      bool     `json:"done"`
	Rows      int      `json:"rows"`
	Truncated bool     `json:"truncated"`
	Error     string   `json:"error"`
}

// parseEnumerate splits an /enumerate body into its rows and trailer.
func parseEnumerate(body []byte) (rows [][]uint32, trailer enumerateLine, err error) {
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		var l enumerateLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, trailer, fmt.Errorf("enumerate line: %w", err)
		}
		if l.Done {
			return rows, l, sc.Err()
		}
		rows = append(rows, l.Mapping)
	}
	if err := sc.Err(); err != nil {
		return nil, trailer, err
	}
	return nil, trailer, fmt.Errorf("enumerate stream without trailer")
}
