package core

import (
	"fmt"
	"math"

	"apollo/internal/linalg"
	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// Config parameterizes APOLLO (Algorithm 1). Zero values resolve to the
// paper defaults via withDefaults.
type Config struct {
	// Rank of the auxiliary space (paper: n/4 or n/8 for APOLLO, 1 for
	// APOLLO-Mini).
	Rank int
	// Granularity of the scaling factor: Channel (APOLLO) or Tensor
	// (APOLLO-Mini).
	Granularity Granularity
	// Scale is the gradient scale α. Defaults: 1 for channel granularity,
	// √128 for tensor granularity — the Theorem-A.4 √(n/r) compensation
	// folded into a constant, as the paper does.
	Scale float64
	// UpdateGap is the projection refresh period T (paper: 200). For random
	// projection a refresh is just a new seed.
	UpdateGap int
	// Projection selects random (default) or SVD subspaces ("APOLLO w. SVD").
	Projection linalg.ProjectionKind
	// Gamma is the norm-growth limiter threshold; 0 keeps the default 1.01.
	Gamma float64
	// DisableNL switches the limiter off (ablation).
	DisableNL bool
	// Seed drives all projection randomness.
	Seed uint64
}

func (c Config) withDefaults() Config {
	if c.Scale == 0 { //apollo:exactfloat zero is the unset-field sentinel; defaults fill only untouched fields
		if c.Granularity == Tensor {
			c.Scale = math.Sqrt(128)
		} else {
			c.Scale = 1
		}
	}
	if c.UpdateGap == 0 {
		c.UpdateGap = 200
	}
	if c.Gamma == 0 { //apollo:exactfloat zero is the unset-field sentinel; defaults fill only untouched fields
		c.Gamma = DefaultGamma
	}
	if c.Seed == 0 {
		c.Seed = 0xA9011_0
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Rank < 1 {
		return fmt.Errorf("core: rank %d < 1", c.Rank)
	}
	if c.Scale < 0 {
		return fmt.Errorf("core: negative scale %v", c.Scale)
	}
	return nil
}

// APOLLO is the paper's optimizer: AdamW moments are kept only in an
// auxiliary rank-r space fed by a (re-seedable) random projection of the
// gradient; the only thing read out of that space is a channel- or
// tensor-wise norm ratio, which rescales the *raw full-rank gradient*. The
// weight update is therefore SGD-shaped with a structured adaptive step
// size — SGD-like memory, AdamW-level behaviour.
type APOLLO struct {
	h   optim.Hyper
	cfg Config

	// ScalingProbe, when non-nil, receives each matrix parameter's
	// channel scaling factors every step (Fig. 4 instrumentation).
	ScalingProbe func(param string, s []float64)

	states map[*nn.Param]*apolloState
	dense  *optim.AdamW
	rng    *tensor.RNG
}

type apolloState struct {
	proj      *linalg.Projector
	mR, vR    *tensor.Matrix // auxiliary moments, r×n
	r, rTilde *tensor.Matrix // per-step scratch, r×n: R = P·G and its normalized moment
	t         int
	since     int
	prevNorm  float64 // for the norm-growth limiter
	trans     bool    // stored matrix is n×m (rows > cols)
}

// New constructs an APOLLO optimizer from cfg.
func New(h optim.Hyper, cfg Config) *APOLLO {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &APOLLO{
		h:      fillHyper(h),
		cfg:    cfg,
		states: map[*nn.Param]*apolloState{},
		dense:  optim.NewAdamW(h),
		rng:    tensor.NewRNG(cfg.Seed),
	}
}

// NewMini constructs APOLLO-Mini: rank-1 auxiliary space, tensor-wise
// scaling, α = √128 (Section 4.2).
func NewMini(h optim.Hyper) *APOLLO {
	return New(h, Config{Rank: 1, Granularity: Tensor})
}

// Name implements optim.Optimizer.
func (a *APOLLO) Name() string {
	base := "APOLLO"
	if a.cfg.Granularity == Tensor && a.cfg.Rank == 1 {
		base = "APOLLO-Mini"
	}
	if a.cfg.Projection == linalg.SVDProjection {
		base += " w. SVD"
	}
	return base
}

// Config returns the resolved configuration.
func (a *APOLLO) Config() Config { return a.cfg }

// SetLR implements optim.Optimizer.
func (a *APOLLO) SetLR(lr float64) {
	a.h.LR = lr
	a.dense.SetLR(lr)
}

// LR implements optim.Optimizer.
func (a *APOLLO) LR() float64 { return a.h.LR }

// projectable mirrors GaLore's policy: 2-D matrices whose smaller dimension
// exceeds the rank. With rank 1 (Mini) every matrix qualifies.
func (a *APOLLO) projectable(p *nn.Param) bool {
	if p.Kind != nn.KindMatrix {
		return false
	}
	m := p.W.Rows
	if p.W.Cols < m {
		m = p.W.Cols
	}
	return m > a.cfg.Rank
}

// StateElemsFor implements optim.StateIntrospector (Table 1: 2nr + 2 — the
// auxiliary moments plus the projection seed and the limiter's previous
// norm; the SVD variant persists its r×m projection instead of the seed).
// APOLLO's projectability rule matches the shared low-rank policy, so the
// shared accounting applies with extra = 1 for prevNorm.
func (a *APOLLO) StateElemsFor(p *nn.Param) int64 {
	return optim.ProjectedStateElems(p, a.cfg.Rank, a.cfg.Projection, 1)
}

// RowSplittable implements optim.StateIntrospector: only the dense AdamW
// fallback is element-wise; projected matrices couple whole channels.
func (a *APOLLO) RowSplittable(p *nn.Param) bool { return !a.projectable(p) }

// PrepareShard implements optim.StateSharder: APOLLO draws one projector
// seed per projectable parameter from its RNG at first touch, in step
// order. For ZeRO-style partitioning (internal/zero) this walks the full
// parameter list in global order — consuming the seed stream exactly as an
// unsharded first Step would — while allocating the auxiliary moments only
// for the owned shard, so a shard-local APOLLO is bit-identical to the
// unsharded instance on its parameters at ~1/N of the state.
func (a *APOLLO) PrepareShard(all []*nn.Param, owned func(*nn.Param) bool) {
	optim.PrepareProjectedShard(all, owned, a.projectable, a.rng.Uint64,
		func(p *nn.Param, seed uint64) {
			if _, ok := a.states[p]; !ok {
				a.states[p] = a.freshState(p, seed)
			}
		})
}

// orientation returns the column count n of p's gradient as APOLLO projects
// it (m ≤ n), and whether the stored matrix is the transpose of that view.
func orientation(p *nn.Param) (n int, trans bool) {
	if p.W.Rows > p.W.Cols {
		return p.W.Rows, true
	}
	return p.W.Cols, false
}

// newApolloState wraps a projector and its r×n moments with the step
// scratch sized alike. The scratch is working memory, not optimizer state:
// StateBytes and checkpoints leave it out.
func newApolloState(proj *linalg.Projector, mR, vR *tensor.Matrix, trans bool) *apolloState {
	return &apolloState{
		proj: proj, mR: mR, vR: vR,
		r:      tensor.NewMatrix(mR.Rows, mR.Cols),
		rTilde: tensor.NewMatrix(mR.Rows, mR.Cols),
		trans:  trans,
	}
}

// freshState is a projected parameter's state at first touch: zero moments
// and a projector drawing its subspaces from seed.
func (a *APOLLO) freshState(p *nn.Param, seed uint64) *apolloState {
	n, trans := orientation(p)
	return newApolloState(linalg.NewProjector(a.cfg.Projection, a.cfg.Rank, seed),
		tensor.NewMatrix(a.cfg.Rank, n), tensor.NewMatrix(a.cfg.Rank, n), trans)
}

// Step implements optim.Optimizer (Algorithm 1).
func (a *APOLLO) Step(ps []*nn.Param) {
	var fallback []*nn.Param
	for _, p := range ps {
		if !a.projectable(p) {
			fallback = append(fallback, p)
			continue
		}
		st, ok := a.states[p]
		if !ok {
			st = a.freshState(p, a.rng.Uint64())
			a.states[p] = st
		}

		// Step 1: project the gradient into the rank-r auxiliary space,
		// re-drawing the subspace every UpdateGap steps (a new seed for
		// random projection; an SVD for the w.-SVD variant).
		grad := p.Grad
		if st.trans {
			grad = p.Grad.T()
		}
		if !st.proj.Ready() || (a.cfg.UpdateGap > 0 && st.since >= a.cfg.UpdateGap) {
			st.proj.Refresh(grad)
			st.since = 0
		}
		st.since++
		st.t++

		r := st.r // R_t, r×n
		st.proj.ProjectInto(r, grad)

		// Step 2: auxiliary AdamW moments (λ = 0 inside the aux space).
		rTilde := st.rTilde
		updateMoments(st.mR, st.vR, rTilde, r, a.h, st.t)

		// Step 3: structured scaling factors from the compressed space.
		update := p.Grad.Clone()
		oriented := update
		if st.trans {
			oriented = update.T()
		}
		var scales []float64
		switch a.cfg.Granularity {
		case Channel:
			scales = channelScales(rTilde, r)
			applyChannelScales(oriented, scales)
		case Tensor:
			f := tensorScale(rTilde, r)
			scales = []float64{f}
			tensor.ScaleInPlace(oriented, float32(f))
		}
		if st.trans {
			update = oriented.T()
		}
		if a.ScalingProbe != nil {
			a.ScalingProbe(p.Name, scales)
		}

		// Step 4: scale by α, tame growth, apply with decoupled decay.
		tensor.ScaleInPlace(update, float32(a.cfg.Scale))
		if !a.cfg.DisableNL {
			st.prevNorm = LimitNormGrowth(update, st.prevNorm, a.cfg.Gamma)
		}
		applyUpdate(p, update, a.h)
	}
	if len(fallback) > 0 {
		a.dense.Step(fallback)
	}
}

// StateBytes implements optim.Optimizer. Per projected m×n parameter the
// resident state is the two r×n auxiliary moments plus two scalars (the
// projection seed and the limiter's previous norm) — Table 1's 2nr + 2; the
// SVD variant additionally persists its r×m projection.
func (a *APOLLO) StateBytes() int64 {
	total := a.dense.StateBytes()
	for _, st := range a.states {
		total += 4 * int64(st.mR.NumEl()+st.vR.NumEl())
		total += 4 * int64(st.proj.StateFloats()) // seed slot (1) or SVD matrix
		total += 4                                // prevNorm for the limiter
	}
	return total
}
