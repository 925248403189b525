package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	goruntime "runtime"
	"time"

	"apollo/internal/bench"
	"apollo/internal/ckpt"
	"apollo/internal/data"
	"apollo/internal/nn"
	"apollo/internal/obs"
	"apollo/internal/obs/memprof"
	"apollo/internal/optim"
	rt "apollo/internal/runtime"
	"apollo/internal/tensor"
	"apollo/internal/train"
	"apollo/internal/zero"
)

const (
	setupRepeats  = 3
	unigramTokens = 1 << 16
	// minFitDrop is how far, in nats, training must lower the loss on the
	// batches it trained on below the warm start's loss on them. Over seeds
	// 1–20 the drop was 0.22–0.25 for zero2 and 0.51–0.58 for b1; an
	// optimizer step that does nothing leaves it at 0.
	minFitDrop = 0.05
	trainProxy = "7B"
	// The warm start: a one-block model of the 7B proxy's width trained for
	// warmSteps at batch 8 supplies the embedding, first block, final norm
	// and head; the deeper blocks keep their seeded init with their output
	// projections zeroed, so the grafted model starts where the trunk ended.
	// From a cold init the 7B proxy stays above the unigram baseline for
	// far longer than a run lasts.
	warmSteps = 20
	warmLR    = 3e-3
	// publish probe: the trained checkpoint served closed loop, counted in
	// requests so every run offers the same work. Each reporting window
	// opens with a writer save, so every window holds one hot reload and
	// the cache refill after it. The steady phase is one client sending
	// the mix (a window of 50 holds 5 of its 10-request patterns), and its
	// latencies are read from the probeSteadyWindows of its windows the
	// host stole least from, so probeSpareWindows can absorb a steal
	// episode. The overload phase is probeClients clients sending unique
	// queries only — saturated clients that hit the cache would measure the
	// hits they happened to draw, not the server's capacity. The goodput limit sits
	// above the probe's heaviest request, a query that waits for a reload,
	// so goodput counts the server's completions, not a cliff.
	probeWarmup          = 10
	probeWindow          = 50
	probeSteadyWindows   = 6
	probeSpareWindows    = 3
	probeOverloadWindow  = 60
	probeOverloadWindows = 3
	probeClients         = 4
	probeLimit           = time.Second
)

// trainSpec is one training workload's configuration.
type trainSpec struct {
	method      string // optimizer name in the bench zoo
	lr          float64
	batch, seq  int
	steps       int // per repetition
	evalBatches int
	replicas    int // 0 = fused train.Pretrain; else DPPretrain over zero.Sharded
	ckptEvery   int
}

var (
	// APOLLO channel-wise, rank dim/4, UpdateGap 50: step 51 refreshes the
	// projector inside every repetition.
	b1Spec    = trainSpec{method: "APOLLO", lr: 1.5e-3, batch: 1, seq: 32, steps: 52, evalBatches: 16}
	zero2Spec = trainSpec{method: "AdamW", lr: 5e-4, batch: 8, seq: 32, steps: 8, evalBatches: 2, replicas: 2, ckptEvery: 4}
)

// trainSetup is one set-up of a training workload: the warm-started
// weights and the unigram baseline, all derived from the seed.
type trainSetup struct {
	proxy   bench.Proxy
	warm    []*tensor.Matrix
	unigram float64
}

func setupTraining(seed uint64) (*trainSetup, error) {
	proxy, err := bench.ProxyByName(trainProxy)
	if err != nil {
		return nil, err
	}
	trunkCfg := proxy.Model
	trunkCfg.Layers = 1
	trunk := nn.NewModel(trunkCfg, tensor.NewRNG(seed+31))
	trunkCorpus, err := bench.NewCorpus(seed + 23)
	if err != nil {
		return nil, err
	}
	train.Pretrain(trunk, optim.NewAdamW(optim.Hyper{LR: warmLR}), trunkCorpus, train.PretrainConfig{
		Batch: 8, Seq: 32, Steps: warmSteps, EvalBatches: -1,
		Schedule: optim.NewWarmupCosine(warmLR, warmSteps),
	})
	model := proxy.NewProxyModel(seed + 33)
	graft := func(dst, src []*nn.Param) {
		for i := range dst {
			dst[i].W.CopyFrom(src[i].W)
		}
	}
	graft([]*nn.Param{model.Embed.P, model.NormF.P, model.Head.P}, []*nn.Param{trunk.Embed.P, trunk.NormF.P, trunk.Head.P})
	graft(model.Blocks[0].Params(), trunk.Blocks[0].Params())
	for _, b := range model.Blocks[1:] {
		b.Attn.Wo.P.W.Zero()
		b.MLP.Down.P.W.Zero()
	}
	s := &trainSetup{proxy: proxy}
	for _, p := range model.Params().List() {
		s.warm = append(s.warm, p.W.Clone())
	}
	corpus, err := bench.NewCorpus(seed + 17)
	if err != nil {
		return nil, err
	}
	s.unigram = corpus.UnigramLogLoss(unigramTokens)
	return s, nil
}

// trainedLoss is m's mean loss over the batches a repetition of spec
// trains on, drawn again from a fresh corpus of the seed.
func trainedLoss(m *nn.Model, seed uint64, spec trainSpec) (float64, error) {
	corpus, err := bench.NewCorpus(seed + 17)
	if err != nil {
		return 0, err
	}
	var total float64
	for i := 0; i < spec.steps; i++ {
		b := corpus.NextTrainBatch(spec.batch, spec.seq)
		total += m.EvalLoss(b.Tokens, b.Targets, b.B, b.T)
	}
	return total / float64(spec.steps), nil
}

// model returns a fresh model holding the warm-started weights.
func (s *trainSetup) model() *nn.Model {
	m := nn.NewModel(s.proxy.Model, tensor.NewRNG(1))
	for i, p := range m.Params().List() {
		p.W.CopyFrom(s.warm[i])
	}
	return m
}

func (s *trainSetup) optimizer(spec trainSpec, seed uint64) (optim.Optimizer, error) {
	build := func() (optim.Optimizer, error) {
		return bench.BuildOptimizer(spec.method, spec.lr, s.proxy.DefaultRank(), seed)
	}
	if spec.replicas == 0 {
		return build()
	}
	if _, err := build(); err != nil {
		return nil, err
	}
	return zero.NewSharded(func() optim.Optimizer {
		o, _ := build() // validated above
		return o
	}, spec.replicas), nil
}

// setupRepeated runs the set-up setupRepeats times, reports the median as
// setup_s and checks every repetition produced the same weights.
func setupRepeated(o options, r *result) (*trainSetup, error) {
	var times []float64
	var first *trainSetup
	same := true
	for i := 0; i < setupRepeats; i++ {
		iv := startInterval()
		s, err := setupTraining(o.seed)
		if err != nil {
			return nil, err
		}
		d, share := iv.stop()
		times = append(times, charge(d.Seconds(), share, 1))
		if first == nil {
			first = s
		} else {
			same = same && sameWeights(first.warm, s.warm)
		}
	}
	r.metric("setup_s", median(times))
	r.note("setup_s", "median of %d set-ups, charged for CPU time given", len(times))
	r.check("setup.deterministic", same, fmt.Sprintf("%d set-ups produced bit-identical warm-start weights", setupRepeats))
	return first, nil
}

// rep is one repetition of a training workload.
type rep struct {
	res     train.Result
	model   *nn.Model // trained weights, kept for the last repetition only
	wall    float64   // seconds inside the training call, charged for CPU time given
	rawWall float64   // the same, uncharged
	share   float64   // run share of the training call
	tokens  float64
	valLoss float64
	state   int64 // largest per-replica optimizer state
	traced  *tracedRep
}

type tracedRep struct {
	tr        *tracer
	telemetry *bytes.Buffer
	mem       *memprof.Profiler
	optMS     []float64
	optAllocs []float64
	optBytes  []float64
	allocMB   float64
	gcCycles  uint32
	poolTasks int64
}

// runRep trains the workload once from the warm start. With traced set it
// records per-layer timings: spans around each layer call in the fused
// loop (which then runs the loop's public steps itself), the loop's own
// telemetry and memory ledger in the DP loop.
func (s *trainSetup) runRep(o options, spec trainSpec, traced bool, r *result) (*rep, error) {
	model := s.model()
	opt, err := s.optimizer(spec, o.seed)
	if err != nil {
		return nil, err
	}
	corpus, err := bench.NewCorpus(o.seed + 17)
	if err != nil {
		return nil, err
	}
	cfg := train.PretrainConfig{
		Batch: spec.batch, Seq: spec.seq, Steps: spec.steps, EvalBatches: spec.evalBatches,
		Schedule: optim.NewWarmupCosine(spec.lr, spec.steps),
	}
	if spec.ckptEvery > 0 {
		cfg.CkptEvery, cfg.CkptPath = spec.ckptEvery, filepath.Join(o.workDir, "train.ckpt")
	}
	out := &rep{model: model, tokens: float64(spec.steps * spec.batch * spec.seq)}
	var tr *tracedRep
	var ms0, ms1 goruntime.MemStats
	pool := obs.NewRegistry()
	if traced {
		tr = &tracedRep{tr: r.trace(), telemetry: &bytes.Buffer{}, mem: memprof.New(memprof.Config{})}
		out.traced = tr
		goruntime.ReadMemStats(&ms0)
		rt.InstrumentDefault(pool)
	}
	iv := startInterval()
	switch {
	case spec.replicas > 0:
		if traced {
			cfg.Telemetry = obs.NewTrainRecorder(tr.telemetry)
			cfg.MemProf = tr.mem
		}
		out.res = train.DPPretrain(model, opt, corpus, train.DPConfig{PretrainConfig: cfg, Replicas: spec.replicas})
		for _, b := range out.res.ReplicaStateBytes {
			out.state = max(out.state, b)
		}
	case traced:
		out.res = tracedPretrain(model, opt, corpus, cfg, tr)
		out.state = opt.StateBytes()
	default:
		out.res = train.Pretrain(model, opt, corpus, cfg)
		out.state = opt.StateBytes()
	}
	d, share := iv.stop()
	out.wall, out.rawWall, out.share = charge(d.Seconds(), share, max(spec.replicas, 1)), d.Seconds(), share
	if traced {
		rt.InstrumentDefault(nil)
		goruntime.ReadMemStats(&ms1)
		tr.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(spec.steps)
		tr.gcCycles = ms1.NumGC - ms0.NumGC
		tr.poolTasks = pool.Counter("apollo_pool_tasks_total", "").Value()
	}
	out.valLoss = out.res.Series[len(out.res.Series)-1].ValLoss
	if spec.replicas == 0 {
		// Publish the trained state for the serve probe (the DP loop saved
		// its own periodic checkpoints).
		st, err := ckpt.Capture(spec.steps, model.Params().List(), opt, corpus)
		if err == nil {
			err = ckpt.SaveFile(filepath.Join(o.workDir, "train.ckpt"), st)
		}
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tracedPretrain is train.Pretrain's loop (no clipping, no periodic eval or
// checkpoint) spelled out with the public layer calls so each can sit in a
// span. The calls and their order are the loop's, so the final validation
// loss is bit-identical to an untraced train.Pretrain run.
func tracedPretrain(model *nn.Model, opt optim.Optimizer, corpus *data.Corpus, cfg train.PretrainConfig, tr *tracedRep) train.Result {
	params := model.Params()
	for step := 0; step < cfg.Steps; step++ {
		op := int64(step + 1)
		stepID, _ := tr.tr.begin("train.step", op, 0)
		opt.SetLR(cfg.Schedule.At(step))
		batch := corpus.NextTrainBatch(cfg.Batch, cfg.Seq)
		params.ZeroGrad()
		fb, _ := tr.tr.begin("train.fwd_bwd", op, stepID)
		layerStep(model, batch, tr.tr, op, fb)
		tr.tr.end(fb)

		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		id, t0 := tr.tr.begin("optim.step", op, stepID)
		opt.Step(params.List())
		tr.tr.end(id)
		d := time.Since(t0)
		goruntime.ReadMemStats(&m1)
		tr.optMS = append(tr.optMS, ms(d))
		tr.optAllocs = append(tr.optAllocs, float64(m1.Mallocs-m0.Mallocs))
		tr.optBytes = append(tr.optBytes, float64(m1.TotalAlloc-m0.TotalAlloc))
		tr.tr.end(stepID)
	}
	var final float64
	tr.tr.do("train.eval", 0, 0, func() {
		final = train.Validate(model, corpus, cfg.EvalBatches, cfg.Batch, cfg.Seq)
	})
	return train.Result{Series: []train.Metric{{Step: cfg.Steps, ValLoss: final}}, Steps: cfg.Steps}
}

// layerStep is Model.Forward, nn.CrossEntropy and Model.Backward spelled
// out layer by layer, each call in a span named after its layer.
func layerStep(m *nn.Model, batch data.Batch, tr *tracer, op, parent int64) {
	b, t := batch.B, batch.T
	var x *tensor.Matrix
	tr.do("nn.embed", op, parent, func() { x = m.Embed.Forward(batch.Tokens) })
	for _, blk := range m.Blocks {
		var h1, a, h, h2, y *tensor.Matrix
		tr.do("nn.norm", op, parent, func() { h1 = blk.Norm1.Forward(x) })
		tr.do("nn.attn_fwd", op, parent, func() { a = blk.Attn.Forward(h1, b, t) })
		tr.do("nn.residual", op, parent, func() { h = tensor.Add(x, a) })
		tr.do("nn.norm", op, parent, func() { h2 = blk.Norm2.Forward(h) })
		tr.do("nn.mlp_fwd", op, parent, func() { y = blk.MLP.Forward(h2) })
		tr.do("nn.residual", op, parent, func() { x = tensor.Add(h, y) })
	}
	var hid, logits, dl, dx *tensor.Matrix
	tr.do("nn.norm", op, parent, func() { hid = m.NormF.Forward(x) })
	tr.do("nn.head_fwd", op, parent, func() { logits = m.Head.Forward(hid) })
	tr.do("nn.loss", op, parent, func() { _, dl = nn.CrossEntropy(logits, batch.Targets, -1) })
	tr.do("nn.head_bwd", op, parent, func() { dx = m.Head.Backward(dl) })
	tr.do("nn.norm", op, parent, func() { dx = m.NormF.Backward(dx) })
	for i := len(m.Blocks) - 1; i >= 0; i-- {
		blk := m.Blocks[i]
		var g, dh *tensor.Matrix
		tr.do("nn.mlp_bwd", op, parent, func() { g = blk.MLP.Backward(dx) })
		tr.do("nn.norm", op, parent, func() { g = blk.Norm2.Backward(g) })
		tr.do("nn.residual", op, parent, func() { dh = tensor.Add(dx, g) })
		tr.do("nn.attn_bwd", op, parent, func() { g = blk.Attn.Backward(dh) })
		tr.do("nn.norm", op, parent, func() { g = blk.Norm1.Backward(g) })
		tr.do("nn.residual", op, parent, func() { dx = tensor.Add(dh, g) })
	}
	tr.do("nn.embed", op, parent, func() { m.Embed.Backward(dx) })
}

// nnMetrics reports the per-step self time of each nn layer span.
func nnMetrics(r *result, tr *tracer, steps int) {
	self := tr.selfTimes()
	for _, name := range []string{"nn.embed", "nn.norm", "nn.attn_fwd", "nn.attn_bwd", "nn.mlp_fwd", "nn.mlp_bwd", "nn.head_fwd", "nn.head_bwd", "nn.loss"} {
		r.metric(name+"_ms", ms(self[name])/float64(steps))
	}
	r.metric("nn.residual_ms", ms(self["nn.residual"])/float64(steps))
	r.note("nn.residual_ms", "ms, the residual tensor.Add calls; printed for context only")
}

func optimTimes(r *result, stepMS []float64) {
	r.metric("optim.step_ms_p50", median(stepMS))
	r.metric("optim.step_ms_max", maxOf(stepMS))
	r.note("optim.step_ms_p50", "n=%d steps", len(stepMS))
}

func optimAllocs(r *result, allocs, bytes []float64) {
	r.metric("optim.allocs_per_step", median(allocs))
	r.metric("optim.alloc_kb_per_step", median(bytes)/1e3)
}

// fusedPhases reports the train.* phase metrics of a fused loop from its
// telemetry totals; the DP-only phases read 0 there.
func fusedPhases(r *result, steps int, wall float64, phases map[string]float64) {
	per := func(p string) float64 { return safeDiv(phases[p]*1e3, float64(steps)) }
	r.metric("train.fwd_bwd_ms", per("forward")+per("backward"))
	r.metric("train.replica_busy_frac", safeDiv(phases["forward"]+phases["backward"], wall))
	r.metric("train.allreduce_ms", per("allreduce"))
	r.metric("train.shard_step_ms", 0)
	r.metric("train.broadcast_ms", per("broadcast"))
	r.metric("train.eval_ms", per("eval"))
	r.metric("train.allreduce_mb_per_step", 0)
	r.metric("train.broadcast_mb_per_step", 0)
	r.metric("mem.dp_grad_leaves_mb", 0)
	r.metric("mem.dp_replicas_mb", 0)
}

// dpLayerProbes measures the layers the DP loop does not expose through
// public calls. Its replicas run one sequence at a time, so the probe runs
// the nn layers and the runtime GEMM kernels at that shape, once per
// sequence of the batch, and takes the allocation counts of the sharded
// optimizer step (the loop's telemetry already timed it).
func dpLayerProbes(o options, r *result, s *trainSetup, spec trainSpec) error {
	corpus, err := bench.NewCorpus(o.seed + 17)
	if err != nil {
		return err
	}
	cfg := s.proxy.Model
	model := nn.NewModel(cfg, tensor.NewRNG(o.seed+33))
	opt, err := s.optimizer(spec, o.seed)
	if err != nil {
		return err
	}
	tr := r.trace()
	const probeSteps = 2
	var allocs, bytes []float64
	for step := 0; step < probeSteps; step++ {
		model.Params().ZeroGrad()
		for i := 0; i < spec.batch; i++ {
			layerStep(model, corpus.NextTrainBatch(1, spec.seq), tr, int64(step+1), 0)
		}
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		opt.Step(model.Params().List())
		goruntime.ReadMemStats(&m1)
		allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs))
		bytes = append(bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
	}
	nnMetrics(r, tr, probeSteps)
	optimAllocs(r, allocs, bytes)
	kernelProbe(r, cfg, spec.seq, spec.batch)
	return nil
}

// gemm is one runtime kernel call of a training step.
type gemm struct {
	kernel  string // MatMul, MatMulT or TMatMul
	m, k, n int
}

// stepGEMMs lists the runtime GEMM calls of one forward+backward over rows
// token rows: per nn.Linear, y = x·Wᵀ (MatMulT), dW = dyᵀ·x (TMatMul) and
// dx = dy·W (MatMul).
func stepGEMMs(cfg nn.Config, rows int) []gemm {
	type lin struct{ in, out int }
	var lins []lin
	for i := 0; i < cfg.Layers; i++ {
		lins = append(lins, lin{cfg.Dim, cfg.Dim}, lin{cfg.Dim, cfg.Dim}, lin{cfg.Dim, cfg.Dim}, lin{cfg.Dim, cfg.Dim},
			lin{cfg.Dim, cfg.Hidden}, lin{cfg.Dim, cfg.Hidden}, lin{cfg.Hidden, cfg.Dim})
	}
	lins = append(lins, lin{cfg.Dim, cfg.Vocab})
	var out []gemm
	for _, l := range lins {
		out = append(out,
			gemm{"MatMulT", rows, l.in, l.out},
			gemm{"TMatMul", l.out, rows, l.in},
			gemm{"MatMul", rows, l.out, l.in})
	}
	return out
}

// kernelProbe replays one step's GEMM calls through the runtime kernels
// for about a second and reports the achieved rate and the step's work.
func kernelProbe(r *result, cfg nn.Config, rows, callsPerStep int) {
	calls := stepGEMMs(cfg, rows)
	rng := tensor.NewRNG(7)
	fill := func(n int) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = rng.NormFloat32()
		}
		return x
	}
	type bufs struct{ out, a, b []float32 }
	var flop float64
	bs := make([]bufs, len(calls))
	for i, c := range calls {
		bs[i] = bufs{make([]float32, c.m*c.n), fill(c.m * c.k), fill(c.k * c.n)}
		flop += 2 * float64(c.m) * float64(c.k) * float64(c.n)
	}
	iters := 0
	t0 := time.Now()
	for iters == 0 || time.Since(t0) < time.Second {
		for i, c := range calls {
			b := bs[i]
			switch c.kernel {
			case "MatMul":
				rt.MatMul(b.out, b.a, b.b, c.m, c.k, c.n)
			case "MatMulT":
				rt.MatMulT(b.out, b.a, b.b, c.m, c.k, c.n)
			case "TMatMul":
				rt.TMatMul(b.out, b.a, b.b, c.k, c.m, c.n)
			}
		}
		iters++
	}
	sec := time.Since(t0).Seconds()
	r.metric("runtime.matmul_gflops", flop*float64(iters)/sec/1e9)
	r.metric("runtime.matmul_gflop_per_step", flop*float64(callsPerStep)/1e9)
	r.note("runtime.matmul_gflops", "%d GEMM shapes at %d rows, %d replays", len(calls), rows, iters)
}

// reps runs repetitions for the run's measured seconds: untraced only, or
// alternating untraced and traced (at least one of each) in a traced run.
func (s *trainSetup) reps(o options, spec trainSpec, r *result) ([]*rep, error) {
	var out []*rep
	start := time.Now()
	var last time.Duration
	minReps := 1
	if o.trace {
		minReps = 2
	}
	for i := 0; ; i++ {
		if i >= minReps && time.Since(start)+last > o.seconds {
			break
		}
		goruntime.GC() // each repetition starts from a collected heap
		t0 := time.Now()
		rp, err := s.runRep(o, spec, o.trace && i%2 == 1, r)
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		ok := rp.res.Steps == spec.steps && !math.IsNaN(rp.valLoss)
		for j := 0; j < spec.steps; j++ {
			r.op(ok)
		}
		if len(out) > 0 {
			out[len(out)-1].model = nil
		}
		out = append(out, rp)
	}
	return out, nil
}

func sameWeights(a, b []*tensor.Matrix) bool {
	for i := range a {
		for j, v := range a[i].Data {
			if math.Float32bits(v) != math.Float32bits(b[i].Data[j]) {
				return false
			}
		}
	}
	return true
}

func allSameBits(xs []float64) bool {
	for _, x := range xs {
		if math.Float64bits(x) != math.Float64bits(xs[0]) {
			return false
		}
	}
	return true
}

func runB1(o options, r *result) error { return runTraining(o, b1Spec, r) }

func runZero2(o options, r *result) error { return runTraining(o, zero2Spec, r) }

func runTraining(o options, spec trainSpec, r *result) error {
	s, err := setupRepeated(o, r)
	if err != nil {
		return err
	}
	if spec.replicas > 0 {
		if err := zeroParity(o, s, spec, r); err != nil {
			return err
		}
	}
	reps, err := s.reps(o, spec, r)
	if err != nil {
		return err
	}
	var tps, losses, untracedWall, tracedWall, shares []float64
	var traced *rep
	for _, rp := range reps {
		losses = append(losses, rp.valLoss)
		if rp.traced != nil {
			traced = rp
			tracedWall = append(tracedWall, rp.wall)
			continue
		}
		tps = append(tps, rp.tokens/rp.wall)
		untracedWall = append(untracedWall, rp.wall)
		shares = append(shares, rp.share)
	}
	last := reps[len(reps)-1]
	r.metric("train_tokens_per_s", median(tps))
	r.note("train_tokens_per_s", "median of %d repetitions of %d steps at batch %d x seq %d, run shares %.3f",
		len(tps), spec.steps, spec.batch, spec.seq, shares)
	r.metric("final_val_loss", last.valLoss)
	r.metric("opt_state_mb", float64(last.state)/1e6)
	name := "train.reps_bit_identical"
	if o.trace {
		name = "train.traced_equals_untraced"
	}
	r.check(name, allSameBits(losses), fmt.Sprintf("final val loss bits of %d repetitions: %v", len(losses), losses))
	// The warm start alone already beats the unigram baseline, so that
	// check cannot see an optimizer step that did nothing; the loss on the
	// trained batches can. (A few steps need not lower the validation
	// loss: on zero2 it rose on 6 of seeds 1–20.)
	warmFit, err := trainedLoss(s.model(), o.seed, spec)
	if err != nil {
		return err
	}
	fit, err := trainedLoss(last.model, o.seed, spec)
	if err != nil {
		return err
	}
	r.check("train.fits_trained_batches", fit < warmFit-minFitDrop,
		fmt.Sprintf("loss on the %d trained batches %.5f vs warm start %.5f (down %.5f, need > %g)", spec.steps, fit, warmFit, warmFit-fit, minFitDrop))
	r.check("train.beats_unigram", last.valLoss < s.unigram, fmt.Sprintf("final val loss %.5f vs unigram %.5f", last.valLoss, s.unigram))

	ckptPath := filepath.Join(o.workDir, "train.ckpt")
	if o.trace {
		if err := trainLayerMetrics(o, s, spec, traced, untracedWall, tracedWall, ckptPath, r); err != nil {
			return err
		}
	}
	return publishProbe(o, s, spec, ckptPath, r)
}

// zeroParity checks the -replicas N -zero ≡ -replicas 1 contract over a
// short prefix: the sharded 2-replica run and an unsharded 1-replica run
// must end on bit-identical weights and validation loss.
func zeroParity(o options, s *trainSetup, spec trainSpec, r *result) error {
	const prefix = 2
	t0 := time.Now()
	run := func(replicas int, sharded bool) (*nn.Model, float64, error) {
		model := s.model()
		ps := spec
		if !sharded {
			ps.replicas = 0
		}
		opt, err := s.optimizer(ps, o.seed)
		if err != nil {
			return nil, 0, err
		}
		corpus, err := bench.NewCorpus(o.seed + 17)
		if err != nil {
			return nil, 0, err
		}
		res := train.DPPretrain(model, opt, corpus, train.DPConfig{Replicas: replicas, PretrainConfig: train.PretrainConfig{
			Batch: spec.batch, Seq: spec.seq, Steps: prefix, EvalBatches: 1,
			Schedule: optim.NewWarmupCosine(spec.lr, spec.steps),
		}})
		return model, res.Series[len(res.Series)-1].ValLoss, nil
	}
	ref, refLoss, err := run(1, false)
	if err != nil {
		return err
	}
	got, gotLoss, err := run(spec.replicas, true)
	if err != nil {
		return err
	}
	var a, b []*tensor.Matrix
	for i, p := range ref.Params().List() {
		a = append(a, p.W)
		b = append(b, got.Params().List()[i].W)
	}
	ok := math.Float64bits(refLoss) == math.Float64bits(gotLoss) && sameWeights(a, b)
	r.check("zero.parity_replicas1", ok, fmt.Sprintf("%d-step prefix: replicas=%d zero loss %v, replicas=1 unsharded loss %v (%.1fs)",
		prefix, spec.replicas, gotLoss, refLoss, time.Since(t0).Seconds()))
	return nil
}

// trainLayerMetrics reports the per-layer metrics of a traced training run.
func trainLayerMetrics(o options, s *trainSetup, spec trainSpec, traced *rep, untracedWall, tracedWall []float64, ckptPath string, r *result) error {
	tr := traced.traced
	r.metric("trace.overhead_frac", median(tracedWall)/median(untracedWall)-1)
	r.note("trace.overhead_frac", "traced %.2fs vs untraced %.2fs per repetition", median(tracedWall), median(untracedWall))
	r.metric("go.alloc_mb_per_step", tr.allocMB)
	r.metric("go.gc_cycles", float64(tr.gcCycles))
	r.metric("runtime.pool_tasks_per_step", float64(tr.poolTasks)/float64(spec.steps))
	cfg := s.proxy.Model
	if spec.replicas == 0 {
		// The fused loop ran layer by layer under spans.
		nnMetrics(r, tr.tr, spec.steps)
		optimTimes(r, tr.optMS)
		optimAllocs(r, tr.optAllocs, tr.optBytes)
		self := tr.tr.selfTimes()
		var fb time.Duration
		for name, d := range self {
			if len(name) > 3 && name[:3] == "nn." {
				fb += d
			}
		}
		fb += self["train.fwd_bwd"]
		wall := 0.0
		for _, d := range tr.tr.durations("train.step") {
			wall += d.Seconds()
		}
		fusedPhases(r, spec.steps, wall, map[string]float64{"forward": fb.Seconds()})
		if evals := tr.tr.durations("train.eval"); len(evals) > 0 {
			r.metric("train.eval_ms", ms(evals[0]))
		}
		kernelProbe(r, cfg, spec.batch*spec.seq, 1)
		// The fused loop writes no periodic checkpoint: time the publish
		// save and a load of it.
		if err := ckptProbe(o, s, spec, ckptPath, r); err != nil {
			return err
		}
		return nil
	}
	dpMetrics(r, traced, spec)
	if err := ckptLoadProbe(ckptPath, r); err != nil {
		return err
	}
	return dpLayerProbes(o, r, s, spec)
}

// dpMetrics reads the DP loop's telemetry (per-step StepEvents), its byte
// counters and its memory ledger.
func dpMetrics(r *result, rp *rep, spec trainSpec) {
	tr := rp.traced
	var stepMS, saveMS []float64
	var wall, fwdbwd float64
	phases := map[string]float64{}
	dec := json.NewDecoder(tr.telemetry)
	for {
		var ev obs.StepEvent
		if err := dec.Decode(&ev); err != nil {
			break
		}
		for k, v := range ev.Phases {
			phases[k] += v
		}
		wall += ev.WallSeconds
		fwdbwd += ev.Phases["forward"] + ev.Phases["backward"]
		stepMS = append(stepMS, ev.Phases["step"]*1e3)
		if c := ev.Phases["checkpoint"]; spec.ckptEvery > 0 && ev.Step%spec.ckptEvery == 0 {
			saveMS = append(saveMS, c*1e3)
		}
	}
	steps := float64(len(stepMS))
	per := func(p string) float64 { return safeDiv(phases[p]*1e3, steps) }
	r.metric("train.fwd_bwd_ms", per("forward")+per("backward"))
	r.metric("train.replica_busy_frac", safeDiv(fwdbwd, wall*float64(spec.replicas)))
	r.metric("train.allreduce_ms", per("allreduce"))
	r.metric("train.shard_step_ms", per("step"))
	r.metric("train.broadcast_ms", per("broadcast"))
	// The final validation runs after the last step's telemetry: it is the
	// part of the call's wall time no step accounts for.
	r.metric("train.eval_ms", per("eval")+safeDiv((rp.rawWall-wall)*1e3, steps))
	r.metric("train.allreduce_mb_per_step", float64(rp.res.AllReduceBytes)/1e6/steps)
	r.metric("train.broadcast_mb_per_step", float64(rp.res.BroadcastBytes)/1e6/steps)
	r.metric("mem.dp_grad_leaves_mb", float64(tr.mem.Read(memprof.CompDPGradLeaves))/1e6)
	r.metric("mem.dp_replicas_mb", float64(tr.mem.Read(memprof.CompDPReplicas))/1e6)
	r.metric("ckpt.save_ms", median(saveMS))
	r.note("ckpt.save_ms", "median of n=%d periodic saves", len(saveMS))
	optimTimes(r, stepMS)
	r.note("optim.step_ms_p50", "sharded step phase, n=%d steps", len(stepMS))
}

// ckptProbe times ckpt.SaveFile of a trained fused-loop state.
func ckptProbe(o options, s *trainSetup, spec trainSpec, path string, r *result) error {
	model := s.model()
	opt, err := s.optimizer(spec, o.seed)
	if err != nil {
		return err
	}
	corpus, err := bench.NewCorpus(o.seed + 17)
	if err != nil {
		return err
	}
	// One step creates the optimizer state a save must carry.
	model.Params().ZeroGrad()
	b := corpus.NextTrainBatch(spec.batch, spec.seq)
	model.Loss(b.Tokens, b.Targets, b.B, b.T)
	opt.Step(model.Params().List())
	probe := filepath.Join(o.workDir, "probe.ckpt")
	var saves []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		st, err := ckpt.Capture(1, model.Params().List(), opt, corpus)
		if err == nil {
			err = ckpt.SaveFile(probe, st)
		}
		if err != nil {
			return err
		}
		saves = append(saves, ms(time.Since(t0)))
	}
	r.metric("ckpt.save_ms", median(saves))
	r.note("ckpt.save_ms", "median of n=%d saves", len(saves))
	return ckptLoadProbe(probe, r)
}

// ckptLoadProbe times ckpt.LoadModelFile and reports size and save rate.
func ckptLoadProbe(path string, r *result) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	var loads []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if _, err := ckpt.LoadModelFile(path); err != nil {
			return err
		}
		loads = append(loads, ms(time.Since(t0)))
	}
	r.metric("ckpt.load_ms", median(loads))
	r.metric("ckpt.bytes", float64(fi.Size()))
	r.metric("ckpt.save_mb_s", safeDiv(float64(fi.Size())/1e6, r.values["ckpt.save_ms"]/1e3))
	return nil
}

// publishProbe serves the workload's trained checkpoint through the serve
// harness, closed loop, while a writer re-saves the trained generation and
// the warm start over it in turn, so the serve and reload metrics are
// measured on every workload.
func publishProbe(o options, s *trainSetup, spec trainSpec, path string, r *result) error {
	corpus, err := bench.NewCorpus(o.seed + 17)
	if err != nil {
		return err
	}
	trained, err := ckpt.LoadFile(path)
	if err != nil {
		return err
	}
	unsharded := spec
	unsharded.replicas = 0
	opt, err := s.optimizer(unsharded, o.seed)
	if err != nil {
		return err
	}
	warm, err := ckpt.Capture(0, s.model().Params().List(), opt, corpus)
	if err != nil {
		return err
	}
	side := filepath.Join(o.workDir, "warm.ckpt")
	if err := ckpt.SaveFile(side, warm); err != nil {
		return err
	}
	h, err := newServeHarness(path, s.proxy.Model, corpus, o.seed)
	if err != nil {
		return err
	}
	for _, p := range []string{path, side} {
		if err := h.reference(p, s.proxy.Model, corpus); err != nil {
			return err
		}
	}
	if _, err := h.reg.Acquire(path); err != nil {
		return err
	}
	goruntime.GC()
	plan := servePlan{limit: probeLimit,
		warmup: phasePlan{n: probeWarmup, per: probeWarmup, clients: 1},
		steady: phasePlan{n: (probeSteadyWindows + probeSpareWindows) * probeWindow, per: probeWindow, reloadEvery: probeWindow,
			clients: 1, keep: probeSteadyWindows},
		overload: phasePlan{n: probeOverloadWindows * probeOverloadWindow, per: probeOverloadWindow,
			reloadEvery: probeOverloadWindow, clients: probeClients, uniqueOnly: true}}
	run, err := h.runWithWriter(plan, &liveWriter{gens: [2]*ckpt.State{warm, trained}}, o.trace, r)
	if err != nil {
		return err
	}
	run.report(r)
	return nil
}
