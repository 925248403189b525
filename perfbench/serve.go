package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"apollo/internal/ckpt"
	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/obs"
	"apollo/internal/serve"
	"apollo/internal/tensor"
	"apollo/internal/train"
)

// Request mix: out of every 10 consecutive requests, 6 are unique
// /v1/logprob queries, 3 draw from a small hot pool of repeated logprob
// queries (cache hits after their first compute per generation) and 1 is
// /v1/perplexity. The pattern is fixed and the seed draws the bodies, so
// every seed offers exactly the same share of cacheable work.
const (
	hotPool       = 16
	ctxLen, optLn = 16, 8
	pplBatches    = 2
	pplBatch      = 4
	pplSeq        = 32
)

type reqKind int

const (
	kindUnique reqKind = iota
	kindHot
	kindPPL
)

type request struct {
	kind reqKind
	hot  int
	path string
	body []byte
}

type outcome struct {
	req        int // index into the phase's requests
	win        int // reporting window
	sent, done time.Time
	status     int
	body       []byte
}

// makeRequests generates n request bodies for checkpoint from rng, before
// any timing starts: the mix above, or unique logprob queries only.
func makeRequests(rng *tensor.RNG, n, vocab int, checkpoint string, hot [][]byte, uniqueOnly bool) ([]request, error) {
	ppl, err := json.Marshal(map[string]any{"checkpoint": checkpoint, "batches": pplBatches, "batch": pplBatch, "seq": pplSeq})
	if err != nil {
		return nil, err
	}
	out := make([]request, n)
	for i := range out {
		switch k := i % 10; {
		case k == 9 && !uniqueOnly:
			out[i] = request{kind: kindPPL, path: "/v1/perplexity", body: ppl}
		case k%3 == 1 && !uniqueOnly:
			h := rng.Intn(len(hot))
			out[i] = request{kind: kindHot, hot: h, path: "/v1/logprob", body: hot[h]}
		default:
			body, err := logprobBody(rng, vocab, checkpoint)
			if err != nil {
				return nil, err
			}
			out[i] = request{kind: kindUnique, path: "/v1/logprob", body: body}
		}
	}
	return out, nil
}

func logprobBody(rng *tensor.RNG, vocab int, checkpoint string) ([]byte, error) {
	c, o := make([]int, ctxLen), make([]int, optLn)
	for j := range c {
		c[j] = rng.Intn(vocab)
	}
	for j := range o {
		o[j] = rng.Intn(vocab)
	}
	return json.Marshal(map[string]any{"checkpoint": checkpoint, "context": c, "option": o})
}

// window is one reporting window of a traffic phase: its run share
// (cpu.go) and its length in seconds.
type window struct{ share, secs float64 }

// closedLoop runs clients that take reqs in order, each sending its next
// request as soon as the previous one answered, until all were sent; each
// request is timed from its send. Requests fall into windows of per
// requests, the last window taking the rest, and before every
// reloadEvery-th request (0: never) a client calls kick; counting in
// requests, a phase offers the same work whatever the host's speed. A
// window's length is the wall time between its first request and the next
// window's, and its run share (cpu.go) is sampled at the same points.
func closedLoop(h http.Handler, reqs []request, clients, per, reloadEvery int, kick func(), tr *tracer) ([]outcome, []window) {
	windows := max(1, len(reqs)/per)
	out := make([]outcome, len(reqs))
	var mu sync.Mutex
	var ws []window
	next := 0
	prev, t := readCPU(), time.Now()
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		i := next
		if i == len(reqs) {
			return 0, false
		}
		next++
		if i > 0 && i%per == 0 && i/per < windows {
			cur, now := readCPU(), time.Now()
			ws = append(ws, window{runShare(prev, cur), now.Sub(t).Seconds()})
			prev, t = cur, now
		}
		return i, true
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				if reloadEvery > 0 && i%reloadEvery == 0 {
					kick()
				}
				out[i] = serveOne(h, reqs, i, tr)
				out[i].win = min(i/per, windows-1)
			}
		}()
	}
	wg.Wait()
	return out, append(ws, window{runShare(prev, readCPU()), time.Since(t).Seconds()})
}

// serveOne sends request i into the handler.
func serveOne(h http.Handler, reqs []request, i int, tr *tracer) outcome {
	sent := time.Now()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, reqs[i].path, bytes.NewReader(reqs[i].body))
	id, _ := tr.begin("serve.handler", int64(i+1), 0)
	h.ServeHTTP(rec, req)
	tr.end(id)
	return outcome{req: i, sent: sent, done: time.Now(), status: rec.Code, body: rec.Body.Bytes()}
}

// phaseStats holds one traffic phase's responses.
type phaseStats struct {
	lat     []float64 // ms from send to response
	status  []int
	win     []int // reporting window of each response
	windows []window
}

func summarize(out []outcome, windows []window) phaseStats {
	s := phaseStats{windows: windows}
	for _, o := range out {
		s.lat = append(s.lat, ms(o.done.Sub(o.sent)))
		s.status = append(s.status, o.status)
		s.win = append(s.win, o.win)
	}
	return s
}

func (s phaseStats) count(status int) int {
	n := 0
	for _, st := range s.status {
		if st == status {
			n++
		}
	}
	return n
}

// phaseFigures are one phase's reported latency and goodput.
type phaseFigures struct {
	q       Quantiles
	goodput float64
	detail  string // share/n/p50/tail@percentile/goodput of every window
}

// figures reads a phase's latency quantiles from the raw samples of its
// keep windows with the highest run share (all windows when keep is 0)
// with the exact rank rule, and its goodput over all windows: 200
// responses within limit per second of phase, a 429 or an error counting
// as a miss. Latencies are the program's own, never rescaled; a window the
// host stole from is left out instead, chosen by its share alone, never by
// its latencies. Goodput is a whole-phase throughput, so like the training
// figures its seconds are charged for the CPU time the host gave: each
// window's length times its run share. The report line carries the same
// figures per window next to the window's share, kept windows marked *.
func (s phaseStats) figures(limit time.Duration, keep int) phaseFigures {
	var f phaseFigures
	lats := make([][]float64, len(s.windows))
	goods := make([]int, len(s.windows))
	good := 0
	for j, w := range s.win {
		lats[w] = append(lats[w], s.lat[j])
		if s.status[j] == http.StatusOK && s.lat[j] <= ms(limit) {
			goods[w]++
			good++
		}
	}
	order := make([]int, len(s.windows))
	for w := range order {
		order[w] = w
	}
	sort.SliceStable(order, func(a, b int) bool { return s.windows[order[a]].share > s.windows[order[b]].share })
	if keep <= 0 || keep > len(order) {
		keep = len(order)
	}
	kept := make([]bool, len(s.windows))
	var keptLat []float64
	for _, w := range order[:keep] {
		kept[w] = true
		keptLat = append(keptLat, lats[w]...)
	}
	var secs float64
	var detail []string
	for w, win := range s.windows {
		ws := charge(win.secs, win.share, 1)
		secs += ws
		wq := exactQuantiles(lats[w])
		mark := ""
		if kept[w] {
			mark = "*"
		}
		detail = append(detail, fmt.Sprintf("%.2f/%d/%.2f/%.1f@p%.1f/%.1f%s", win.share, wq.N, wq.P50, wq.Tail, wq.TailPc, float64(goods[w])/ws, mark))
	}
	f.q, f.goodput = exactQuantiles(keptLat), safeDiv(float64(good), secs)
	f.detail = strings.Join(detail, " ")
	return f
}

// serveHarness is an in-process serve.Server over one checkpoint path plus
// the request streams and references its correctness checks need.
type serveHarness struct {
	path    string
	reg     *serve.Registry
	metrics *obs.Registry
	h       http.Handler
	rng     *tensor.RNG
	vocab   int
	hot     [][]byte

	mu       sync.Mutex
	expected map[int]string // step → offline loss_text of that generation
	saves    []saveEvent    // saves made during the phases
}

// saveEvent is one checkpoint save over the served path.
type saveEvent struct {
	step int
	end  time.Time
}

// newServeHarness opens an in-process server on the checkpoint at path with
// its metrics registry on and the default bounded queue. Closed-loop
// clients bound the queue themselves, so no shed threshold is set.
func newServeHarness(path string, model nn.Config, corpus *data.Corpus, seed uint64) (*serveHarness, error) {
	metrics := obs.NewRegistry()
	reg, err := serve.NewRegistry(serve.Config{Model: model, Corpus: corpus, Metrics: metrics})
	if err != nil {
		return nil, err
	}
	s := &serveHarness{
		path: path, reg: reg, metrics: metrics, h: serve.NewServer(reg).Handler(),
		rng: tensor.NewRNG(seed*7919 + 3), vocab: model.Vocab,
		expected: map[int]string{},
	}
	for i := 0; i < hotPool; i++ {
		body, err := logprobBody(s.rng, s.vocab, path)
		if err != nil {
			return nil, err
		}
		s.hot = append(s.hot, body)
	}
	return s, nil
}

// reference records the offline answer for the checkpoint at path:
// train.Validate on the model as ckpt.LoadModelFile reads it.
func (s *serveHarness) reference(path string, cfg nn.Config, corpus *data.Corpus) error {
	snap, err := ckpt.LoadModelFile(path)
	if err != nil {
		return err
	}
	m := nn.NewModel(cfg, tensor.NewRNG(1))
	if err := snap.InstallWeights(m.Params().List()); err != nil {
		return err
	}
	loss := train.Validate(m, corpus, pplBatches, pplBatch, pplSeq)
	s.mu.Lock()
	s.expected[snap.Step] = serve.ExactFloat(loss)
	s.mu.Unlock()
	return nil
}

// counters reads the serve layer's registry counters and histogram sums.
type serveCounters struct {
	hits, misses, reloads, qwCount, bsCount int64
	qwSum, bsSum                            float64
}

func (s *serveHarness) counters() serveCounters {
	m := s.metrics
	qw := m.Histogram("apollo_serve_batch_queue_wait_seconds", "", obs.LatencyBuckets)
	bs := m.Histogram("apollo_serve_batch_size", "", obs.SizeBuckets)
	return serveCounters{
		hits:    m.Counter("apollo_serve_cache_hits_total", "").Value(),
		misses:  m.Counter("apollo_serve_cache_misses_total", "").Value(),
		reloads: m.Counter("apollo_serve_registry_hot_reloads_total", "").Value(),
		qwCount: qw.Count(), qwSum: qw.Sum(),
		bsCount: bs.Count(), bsSum: bs.Sum(),
	}
}

// phasePlan is one traffic phase counted in requests: how many, how many
// per reporting window and how many between writer saves (0: none), how
// many closed-loop clients send them, and how many windows the latency
// quantiles read (0: all; see phaseStats.figures).
type phasePlan struct {
	n, per, reloadEvery int
	clients             int
	uniqueOnly          bool
	keep                int
}

// servePlan is the traffic a run offers: a short warm-up, the steady phase
// and the overload phase.
type servePlan struct {
	limit                    time.Duration // goodput latency limit
	warmup, steady, overload phasePlan
}

// servedAt is one 200 response's completion time and generation.
type servedAt struct {
	done time.Time
	step int
}

// checkState accumulates the response checks across phases.
type checkState struct {
	firstHot map[[2]int][]byte // (step, hot idx) → first 200 body
	served   []servedAt        // every 200 response: when, and which step answered
	steps    map[int]bool
	badPPL   []string
	badHot   int
	hotSeen  int
	pplSeen  int
	errors   int
}

func (s *serveHarness) checkOutcomes(reqs []request, out []outcome, cs *checkState, r *result) {
	for _, o := range out {
		switch o.status {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			r.shed++
			r.attempted++
			continue
		default:
			cs.errors++
			r.op(false)
			continue
		}
		var resp struct {
			Step     int    `json:"step"`
			LossText string `json:"loss_text"`
		}
		if err := json.Unmarshal(o.body, &resp); err != nil {
			cs.errors++
			r.op(false)
			continue
		}
		r.op(true)
		cs.served = append(cs.served, servedAt{o.done, resp.Step})
		cs.steps[resp.Step] = true
		switch q := reqs[o.req]; q.kind {
		case kindHot:
			cs.hotSeen++
			key := [2]int{resp.Step, q.hot}
			if first, ok := cs.firstHot[key]; !ok {
				cs.firstHot[key] = o.body
			} else if !bytes.Equal(first, o.body) {
				cs.badHot++
			}
		case kindPPL:
			cs.pplSeen++
			s.mu.Lock()
			want, ok := s.expected[resp.Step]
			s.mu.Unlock()
			if !ok || want != resp.LossText {
				cs.badPPL = append(cs.badPPL, fmt.Sprintf("step %d served %s offline %s", resp.Step, resp.LossText, want))
			}
		}
	}
}

// serveRun is what runTraffic measured.
type serveRun struct {
	plan             servePlan
	steady, overload phaseStats
	handler          []float64 // traced handler span durations, ms
	requests         int
	reloadLag        []float64 // ms, save end → first 200 carrying the new step
	counters         serveCounters
}

// runTraffic offers the plan's phases to the harness and checks every
// response. During the phases an optional writer runs alongside (see
// liveWriter).
func (s *serveHarness) runTraffic(plan servePlan, traced bool, kick func(), r *result) (*serveRun, error) {
	// Every body is generated before timing starts.
	var reqs [3][]request // warm-up, steady, overload
	for i, p := range []phasePlan{plan.warmup, plan.steady, plan.overload} {
		var err error
		if reqs[i], err = makeRequests(s.rng, p.n, s.vocab, s.path, s.hot, p.uniqueOnly); err != nil {
			return nil, err
		}
	}

	run := &serveRun{plan: plan}
	cs := &checkState{firstHot: map[[2]int][]byte{}, steps: map[int]bool{}}
	var tr *tracer
	if traced {
		tr = r.trace()
	}
	offer := func(reqs []request, p phasePlan, tr *tracer) phaseStats {
		out, ws := closedLoop(s.h, reqs, p.clients, p.per, p.reloadEvery, kick, tr)
		s.checkOutcomes(reqs, out, cs, r)
		return summarize(out, ws)
	}
	offer(reqs[0], plan.warmup, nil)

	c0 := s.counters()
	run.steady = offer(reqs[1], plan.steady, tr)
	run.overload = offer(reqs[2], plan.overload, tr)
	c1 := s.counters()
	run.counters = serveCounters{
		hits: c1.hits - c0.hits, misses: c1.misses - c0.misses, reloads: c1.reloads - c0.reloads,
		qwCount: c1.qwCount - c0.qwCount, qwSum: c1.qwSum - c0.qwSum,
		bsCount: c1.bsCount - c0.bsCount, bsSum: c1.bsSum - c0.bsSum,
	}
	run.requests = len(run.steady.lat) + len(run.overload.lat)
	for _, d := range tr.durations("serve.handler") {
		run.handler = append(run.handler, ms(d))
	}

	// Correctness: every response was 200 or 429; cached responses are
	// byte-identical to the first compute; every served perplexity equals
	// the offline Validate of the same generation, char for char.
	r.check("serve.status", cs.errors == 0, fmt.Sprintf("%d responses neither 200 nor 429", cs.errors))
	r.check("serve.hot_cache_bytes", cs.badHot == 0 && cs.hotSeen > 0,
		fmt.Sprintf("%d of %d hot-pool responses differ from the first one of their generation", cs.badHot, cs.hotSeen))
	detail := fmt.Sprintf("%d perplexity responses over %d generations match offline train.Validate", cs.pplSeen, len(cs.steps))
	if len(cs.badPPL) > 0 {
		detail = fmt.Sprintf("%d mismatches, first: %s", len(cs.badPPL), cs.badPPL[0])
	}
	r.check("serve.perplexity_equals_offline", len(cs.badPPL) == 0 && cs.pplSeen > 0, detail)
	s.mu.Lock()
	for _, sv := range s.saves {
		var first time.Time
		for _, a := range cs.served {
			if a.step == sv.step && a.done.After(sv.end) && (first.IsZero() || a.done.Before(first)) {
				first = a.done
			}
		}
		if !first.IsZero() {
			run.reloadLag = append(run.reloadLag, ms(first.Sub(sv.end)))
		}
	}
	s.mu.Unlock()
	return run, nil
}

// report turns a serve run into metrics.
func (run *serveRun) report(r *result) {
	plan := run.plan
	offered := func(p phasePlan) string {
		return fmt.Sprintf("%d requests, closed loop, clients=%d", p.n, p.clients)
	}
	st := run.steady.figures(plan.limit, plan.steady.keep)
	r.metric("serve_p50_ms", st.q.P50)
	r.metric("serve_p99_ms", st.q.Tail)
	r.note("serve_p50_ms", "n=%d from the %d windows of highest run share, %s; per window share/n/p50/tail/goodput: %s",
		st.q.N, plan.steady.keep, offered(plan.steady), st.detail)
	r.note("serve_p99_ms", "p%.2f of n=%d, %d beyond", st.q.TailPc, st.q.N, minTail)
	ov := run.overload.figures(plan.limit, plan.overload.keep)
	r.metric("serve_goodput_qps", ov.goodput)
	r.note("serve_goodput_qps", "%s, limit %v, ok=%d shed=%d of %d; per window: %s",
		offered(plan.overload), plan.limit, run.overload.count(http.StatusOK),
		run.overload.count(http.StatusTooManyRequests), len(run.overload.lat), ov.detail)

	h := exactQuantiles(run.handler)
	r.metric("serve.handler_ms_p50", h.P50)
	r.metric("serve.handler_ms_p99", h.Tail)
	r.note("serve.handler_ms_p99", "p%.2f n=%d", h.TailPc, h.N)
	c := run.counters
	r.metric("serve.queue_wait_ms_mean", safeDiv(c.qwSum*1e3, float64(c.qwCount)))
	r.metric("serve.batch_size_mean", safeDiv(c.bsSum, float64(c.bsCount)))
	r.metric("serve.cache_hit_ratio", safeDiv(float64(c.hits), float64(c.hits+c.misses)))
	sheds := run.steady.count(http.StatusTooManyRequests) + run.overload.count(http.StatusTooManyRequests)
	r.metric("serve.shed_ratio", safeDiv(float64(sheds), float64(run.requests)))
	r.metric("serve.reloads", float64(c.reloads))
	r.metric("serve.reload_lag_ms", median(run.reloadLag))
	r.note("serve.reload_lag_ms", "median of n=%d", len(run.reloadLag))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// liveWriter re-saves the two generations over the served path in turn,
// once per signal on its trigger — each save a hot reload for the server —
// and probes ckpt.LoadModelFile on every new file.
type liveWriter struct {
	gens           [2]*ckpt.State
	saveMS, loadMS []float64
	bytes          int64
	err            error
}

func (w *liveWriter) run(trigger <-chan struct{}, h *serveHarness) {
	for i := 0; ; i++ {
		if _, ok := <-trigger; !ok {
			return
		}
		st := w.gens[i%2]
		t0 := time.Now()
		if err := ckpt.SaveFile(h.path, st); err != nil {
			w.err = err
			return
		}
		end := time.Now()
		h.mu.Lock()
		h.saves = append(h.saves, saveEvent{step: st.Step, end: end})
		h.mu.Unlock()
		snap, err := ckpt.LoadModelFile(h.path)
		if err == nil && snap.Step != st.Step {
			err = fmt.Errorf("reloaded step %d, saved %d", snap.Step, st.Step)
		}
		if err != nil {
			w.err = err
			return
		}
		w.loadMS = append(w.loadMS, ms(time.Since(end)))
		w.saveMS = append(w.saveMS, ms(end.Sub(t0)))
		if fi, err := os.Stat(h.path); err == nil {
			w.bytes = fi.Size()
		}
	}
}

// runWithWriter offers the plan's traffic while w re-saves its generations
// over the served path at the plan's reload points, and checks that the
// server hot-reloaded them.
func (s *serveHarness) runWithWriter(plan servePlan, w *liveWriter, traced bool, r *result) (*serveRun, error) {
	trigger := make(chan struct{}, 1)
	kick := func() {
		select {
		case trigger <- struct{}{}:
		default: // the previous save has not started yet
		}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.run(trigger, s)
	}()
	run, err := s.runTraffic(plan, traced, kick, r)
	close(trigger)
	<-done
	if err != nil {
		return nil, err
	}
	if w.err != nil {
		return nil, fmt.Errorf("live writer: %w", w.err)
	}
	r.check("serve.reloads", run.counters.reloads >= 2, fmt.Sprintf("%d hot reloads during the phases", run.counters.reloads))
	return run, nil
}
