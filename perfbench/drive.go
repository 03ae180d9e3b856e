package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// In a traced run, one write in writeTraceEvery records spans.
const writeTraceEvery = 8

// recorder is an in-process http.ResponseWriter: requests go straight to
// the precis-server handler, with no socket in between.
type recorder struct {
	h    http.Header
	code int
	body bytes.Buffer
}

func (r *recorder) Header() http.Header { return r.h }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

// serve runs one GET through h and returns the status and body; the body
// is valid until the next call.
func (r *recorder) serve(h http.Handler, url string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(context.Background(), http.MethodGet, url, nil)
	if err != nil {
		return 0, nil, err
	}
	if r.h == nil {
		r.h = http.Header{}
	}
	clear(r.h)
	r.code = 0
	r.body.Reset()
	h.ServeHTTP(r, req)
	return r.code, r.body.Bytes(), nil
}

// answerDigest fingerprints a served JSON answer, ignoring whether it came
// from the answer cache.
func answerDigest(body []byte) [32]byte {
	return sha256.Sum256(bytes.Replace(body, []byte(`,"from_cache":true`), nil, 1))
}

// clientResult is what one client measured and saw.
type clientResult struct {
	attempted, failed int
	t0                time.Time // start of the phase
	lat               []float64 // ms, successful operations only
	at                []float64 // s since t0 at which each lat sample completed
	late              []float64 // ms, open-loop send lateness
	userBytes         int64
	respBytes         int64
	answers           map[string][32]byte // query -> served answer digest
	reads             []readStats         // traced reads only
	errors            []string            // first failures, for the listing
	problems          []string            // wrong outputs
}

func newClientResult(t0 time.Time) *clientResult {
	return &clientResult{t0: t0, answers: map[string][32]byte{}}
}

func (c *clientResult) sample(lat time.Duration) {
	c.lat = append(c.lat, ms(lat))
	c.at = append(c.at, time.Since(c.t0).Seconds())
}

func (c *clientResult) problem(format string, args ...any) {
	if len(c.problems) < 8 {
		c.problems = append(c.problems, fmt.Sprintf(format, args...))
	}
}

func (c *clientResult) fail(format string, args ...any) {
	c.failed++
	if len(c.errors) < 8 {
		c.errors = append(c.errors, fmt.Sprintf(format, args...))
	}
}

// driver issues the benchmark's operations against one rig, recording
// spans when tr is set.
type driver struct {
	w   *workload
	r   *rig
	in  *inputs
	tr  *tracer
	rd  *redriver
	mir *mirror
	// gate is held by traced reads for write while they are re-driven and by
	// writes during the engine call, so a re-driven read sees the database
	// the served answer was computed from. Only traced runs with concurrent
	// reads and writes use it.
	gate  sync.RWMutex
	gated bool
	// writeSeq numbers traced runs' writes; one in writeTraceEvery records
	// spans, which bounds a write storm's trace to a few hundred thousand.
	writeSeq atomic.Uint64
	// stable marks phases without concurrent writes: every answer to one
	// query must then be identical.
	stable bool
}

func (d *driver) read(rec *recorder, q query, res *clientResult) {
	res.attempted++
	req := d.tr.newReq()
	root := d.tr.begin("read", req, 0)
	defer d.tr.end(root)
	if d.gated {
		d.gate.RLock()
		defer d.gate.RUnlock()
	}
	ws := d.tr.begin("web.ServeHTTP", req, root.ID)
	start := time.Now()
	code, body, err := rec.serve(d.r.handler, q.url())
	elapsed := time.Since(start)
	d.tr.end(ws)
	if err != nil || code != http.StatusOK {
		res.fail("GET %s: status %d %v", q.url(), code, err)
		return
	}
	res.sample(elapsed)
	res.respBytes += int64(len(body))
	sum := answerDigest(body)
	if prev, ok := res.answers[q.q]; ok && d.stable && prev != sum {
		res.problem("query %q answered differently on repeat with no writes", q.q)
	}
	res.answers[q.q] = sum
	if d.rd == nil {
		return
	}
	var served struct {
		Narrative string `json:"narrative"`
	}
	if err := json.Unmarshal(body, &served); err != nil {
		res.problem("decoding answer to %q: %v", q.q, err)
		return
	}
	narrative, st, err := d.rd.run(d.tr, req, root.ID, q)
	if err != nil {
		res.problem("re-driving %q: %v", q.q, err)
		return
	}
	if narrative != served.Narrative {
		res.problem("re-driven narrative for %q differs from the served one", q.q)
	}
	res.reads = append(res.reads, st)
}

// write sends the writer's next mutation; latency runs from due, the time
// the write was scheduled (open loop) or issued (closed loop).
func (d *driver) write(wr *writer, due time.Time, res *clientResult) {
	m := wr.next()
	res.attempted++
	tr := d.tr
	if tr != nil && d.writeSeq.Add(1)%writeTraceEvery != 0 {
		tr = nil // the mirror still replays this write, untimed
	}
	req := tr.newReq()
	root := tr.begin("write", req, 0)
	defer tr.end(root)
	if d.gated {
		d.gate.Lock()
	}
	c := tr.begin("engine."+m.op.String(), req, root.ID)
	id, err := m.apply(d.r.eng)
	tr.end(c)
	done := time.Now()
	if d.gated {
		d.gate.Unlock()
	}
	if err != nil {
		res.fail("%s %s: %v", m.op, m.rel, err)
		return
	}
	res.sample(done.Sub(due))
	res.userBytes += int64(m.payloadBytes())
	wr.done(m, id)
	if d.mir != nil {
		if err := d.mir.apply(tr, req, root.ID, m, id); err != nil {
			res.problem("%v", err)
		}
	}
}

// ckptStats are the checkpoints the benchmark's tick ran.
type ckptStats struct {
	pauseMax  float64 // ms
	indexSeen map[string]bool
	indexB    int64
	problems  []string
}

// phaseResult gathers one load phase.
type phaseResult struct {
	seconds float64
	reads   []*clientResult
	writes  []*clientResult
	ackLag  []float64
}

// load runs the workload's clients for the given duration: closed-loop
// readers, closed-loop writers, an open-loop writer at a fixed rate, and
// the checkpoint tick.
func (d *driver) load(seconds float64, seed int64, ckpt *ckptStats) *phaseResult {
	w := d.w
	pr := &phaseResult{}
	start := time.Now()
	end := start.Add(time.Duration(seconds * float64(time.Second)))
	var wg sync.WaitGroup
	for i := 0; i < w.readers; i++ {
		res := newClientResult(start)
		pr.reads = append(pr.reads, res)
		r := rand.New(rand.NewSource(seed*1000003 + int64(i)))
		next := d.querySource(r)
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := &recorder{}
			for time.Now().Before(end) {
				d.read(rec, next(), res)
			}
		}()
	}
	for i := 0; i < w.writers; i++ {
		res := newClientResult(start)
		pr.writes = append(pr.writes, res)
		wr := d.in.writers[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now := time.Now(); now.Before(end); now = time.Now() {
				d.write(wr, now, res)
			}
		}()
	}
	if w.writeRate > 0 {
		res := newClientResult(start)
		pr.writes = append(pr.writes, res)
		interval := time.Duration(float64(time.Second) / w.writeRate)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; ; k++ {
				due := start.Add(time.Duration(k) * interval)
				if !due.Before(end) {
					return
				}
				time.Sleep(time.Until(due))
				res.late = append(res.late, ms(time.Since(due)))
				d.write(d.in.writers[0], due, res)
			}
		}()
	}
	if w.checkpointEvery > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d.checkpoints(start, end, ckpt)
		}()
	}
	if d.tr != nil && w.followers > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			pr.ackLag = d.sampleAckLag(end)
		}()
	}
	wg.Wait()
	pr.seconds = time.Since(start).Seconds()
	return pr
}

// querySource returns the reader's seeded request stream.
func (d *driver) querySource(r *rand.Rand) func() query {
	if d.w.heavy {
		return func() query { return query{q: d.in.people.pick(r), w: heavyW, card: heavyCard} }
	}
	z := rand.NewZipf(r, hotZipfS, 1, uint64(len(d.in.hot)-1))
	return func() query { return d.in.hot[z.Uint64()] }
}

// checkpoints runs Engine.Checkpoint every checkpointEvery from start until
// end, recording the pause of each and the index files compactions write.
func (d *driver) checkpoints(start, end time.Time, st *ckptStats) {
	for k := 1; ; k++ {
		at := start.Add(time.Duration(k) * d.w.checkpointEvery)
		if !at.Before(end) {
			return
		}
		time.Sleep(time.Until(at))
		s := d.tr.begin("engine.Checkpoint", d.tr.newReq(), 0)
		err := d.r.eng.Checkpoint()
		d.tr.end(s)
		if err != nil {
			st.problems = append(st.problems, fmt.Sprintf("checkpoint: %v", err))
			continue
		}
		st.pauseMax = max(st.pauseMax, d.r.eng.PersistStats().LastCheckpointPauseMS)
		st.indexB += indexBytes(d.r.primaryDir(), st.indexSeen)
	}
}

// sampleAckLag polls the primary's worst follower ack lag, in records,
// every ackLagEvery until end.
func (d *driver) sampleAckLag(end time.Time) []float64 {
	const ackLagEvery = 5 * time.Millisecond
	var out []float64
	for time.Now().Before(end) {
		if p := d.r.eng.ReplStats().Primary; p != nil {
			worst := int64(0)
			for _, l := range p.Links {
				worst = max(worst, l.AckLagRecords)
			}
			out = append(out, float64(worst))
		}
		time.Sleep(ackLagEvery)
	}
	return out
}

// readProbe serves each query once from one closed-loop client.
func (d *driver) readProbe(qs []query) *phaseResult {
	start := time.Now()
	res := newClientResult(start)
	rec := &recorder{}
	for _, q := range qs {
		d.read(rec, q, res)
	}
	return &phaseResult{seconds: time.Since(start).Seconds(), reads: []*clientResult{res}}
}

// writeProbe sends n mutations from one closed-loop writer.
func (d *driver) writeProbe(n int) *phaseResult {
	start := time.Now()
	res := newClientResult(start)
	for i := 0; i < n; i++ {
		d.write(d.in.writers[0], time.Now(), res)
	}
	return &phaseResult{seconds: time.Since(start).Seconds(), writes: []*clientResult{res}}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
