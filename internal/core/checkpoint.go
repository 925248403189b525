// Checkpoint hooks for the paper's own optimizers, mirroring the
// optim.StateSaver / optim.StateLoader implementations of the baseline zoo
// (see internal/optim/checkpoint.go for the canonical-form contract).
// APOLLO's persistent state per projected parameter is exactly what Table 1
// advertises — the rank-space moments plus the projector seed/phase and the
// limiter's previous norm — so a checkpoint restores the trajectory
// bit-for-bit without ever persisting the random projection matrix.
package core

import (
	"fmt"

	"apollo/internal/nn"
	"apollo/internal/optim"
	"apollo/internal/tensor"
)

// CaptureGlobals implements optim.StateSaver: the projector-seed RNG phase.
func (a *APOLLO) CaptureGlobals() ([]uint64, error) { return []uint64{a.rng.State()}, nil }

// CaptureParam implements optim.StateSaver — layout: Scalars [t, since,
// prevNorm bits, proj seed, proj rng, proj m, proj ready]; Whole [mR, vR]
// (+ the SVD projection for the w.-SVD variant). Dense fallback delegates.
func (a *APOLLO) CaptureParam(p *nn.Param) (*optim.ParamState, error) {
	if !a.projectable(p) {
		return a.dense.CaptureParam(p)
	}
	st, ok := a.states[p]
	if !ok {
		return nil, nil
	}
	return optim.CaptureProjectedState(st.proj, st.mR, st.vR, st.t, st.since, &st.prevNorm), nil
}

// RestoreGlobals implements optim.StateLoader.
func (a *APOLLO) RestoreGlobals(gs []uint64) error {
	if len(gs) != 1 {
		return fmt.Errorf("core: APOLLO: %d global cursors, want 1", len(gs))
	}
	a.rng.SetState(gs[0])
	return nil
}

// RestoreParam implements optim.StateLoader.
func (a *APOLLO) RestoreParam(p *nn.Param, st *optim.ParamState) error {
	if !a.projectable(p) {
		return a.dense.RestoreParam(p, st)
	}
	n, trans := orientation(p)
	proj, mR, vR, t, since, prevNorm, err := optim.RestoreProjectedState(
		st, a.cfg.Projection, a.cfg.Rank, n, true, "APOLLO "+p.Name)
	if err != nil {
		return err
	}
	s := newApolloState(proj, mR, vR, trans)
	s.t, s.since, s.prevNorm = t, since, prevNorm
	a.states[p] = s
	return nil
}

// CaptureGlobals implements optim.StateSaver (no global cursors).
func (s *StructuredAdamW) CaptureGlobals() ([]uint64, error) { return nil, nil }

// CaptureParam implements optim.StateSaver — layout: Scalars [t, prevNorm
// bits]; RowMats [m, v]. Non-matrix parameters delegate to the dense AdamW.
func (s *StructuredAdamW) CaptureParam(p *nn.Param) (*optim.ParamState, error) {
	if p.Kind != nn.KindMatrix {
		return s.dense.CaptureParam(p)
	}
	st, ok := s.states[p]
	if !ok {
		return nil, nil
	}
	return &optim.ParamState{
		Scalars: []uint64{uint64(st.t), optim.F64Bits(st.prevNorm)},
		RowMats: []*tensor.Matrix{st.m.Clone(), st.v.Clone()},
	}, nil
}

// RestoreGlobals implements optim.StateLoader.
func (s *StructuredAdamW) RestoreGlobals(gs []uint64) error {
	if len(gs) != 0 {
		return fmt.Errorf("core: StructuredAdamW: %d global cursors, want 0", len(gs))
	}
	return nil
}

// RestoreParam implements optim.StateLoader.
func (s *StructuredAdamW) RestoreParam(p *nn.Param, st *optim.ParamState) error {
	if p.Kind != nn.KindMatrix {
		return s.dense.RestoreParam(p, st)
	}
	who := "StructuredAdamW " + p.Name
	if st == nil || len(st.Scalars) != 2 || len(st.RowMats) != 2 ||
		len(st.Whole) != 0 || len(st.Blobs) != 0 || st.Sub != nil {
		return fmt.Errorf("core: %s: unexpected state layout", who)
	}
	for _, m := range st.RowMats {
		if m.Rows != p.W.Rows || m.Cols != p.W.Cols {
			return fmt.Errorf("core: %s: state matrix %dx%d, want %dx%d",
				who, m.Rows, m.Cols, p.W.Rows, p.W.Cols)
		}
	}
	s.states[p] = &structState{
		m: st.RowMats[0].Clone(), v: st.RowMats[1].Clone(),
		t: int(st.Scalars[0]), prevNorm: optim.F64From(st.Scalars[1]),
	}
	return nil
}
