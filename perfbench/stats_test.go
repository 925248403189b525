package main

import (
	"math"
	"net/http"
	"testing"
	"time"
)

func TestExactQuantilesRankRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: the rule must sort
		}
		return xs
	}
	cases := []struct {
		n              int
		p50, tail, pct float64
	}{
		{0, 0, 0, 0},
		{1, 1, 1, 0},           // no sample can have 10 beyond it: tail falls back to the median
		{10, 5, 5, 0},          // still none: rank 0 would be needed
		{11, 6, 1, 100.0 / 11}, // rank 1 has exactly 10 samples beyond it
		{1000, 500, 990, 99},
	}
	for _, c := range cases {
		q := exactQuantiles(seq(c.n))
		if q.N != c.n || q.P50 != c.p50 || q.Tail != c.tail || q.TailPc != c.pct {
			t.Errorf("n=%d: got %+v, want p50 %v tail %v at p%v", c.n, q, c.p50, c.tail, c.pct)
		}
	}
}

func TestExactQuantilesLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	exactQuantiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatalf("input reordered: %v", xs)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median %v", m)
	}
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Errorf("odd median %v", m)
	}
	if m := median(nil); m != 0 {
		t.Errorf("empty median %v", m)
	}
}

func TestRunShare(t *testing.T) {
	a := cpuSample{run: 100, steal: 10}
	if s := runShare(a, cpuSample{run: 175, steal: 35}); s != 0.75 {
		t.Errorf("share %v, want 0.75", s)
	}
	if s := runShare(a, a); s != 1 {
		t.Errorf("idle interval share %v, want 1", s)
	}
	if s := runShare(a, cpuSample{run: 100, steal: 11}); s != 1 {
		t.Errorf("share %v of an interval with steal but no counted run time, want 1", s)
	}
	if s := runShare(a, cpuSample{}); s != 1 {
		t.Errorf("unreadable /proc/stat share %v, want 1", s)
	}
	if c := charge(8, 0.75, 1); c != 6 {
		t.Errorf("charged %v s for 8 s at share 0.75, want 6", c)
	}
	if c := charge(8, 0.75, 2); c != 4.5 {
		t.Errorf("charged %v s for 8 s at share 0.75 over 2 waiting parts, want 4.5", c)
	}
}

// TestFiguresKeepLeastStolenWindows checks that the latency quantiles read
// only the windows with the highest run share, while goodput counts every
// window.
func TestFiguresKeepLeastStolenWindows(t *testing.T) {
	s := phaseStats{windows: []window{{share: 0.5, secs: 1}, {share: 1, secs: 1}, {share: 0.9, secs: 1}}}
	for w, lat := range []float64{100, 10, 20} {
		for i := 0; i < 3; i++ {
			s.lat = append(s.lat, lat)
			s.status = append(s.status, http.StatusOK)
			s.win = append(s.win, w)
		}
	}
	f := s.figures(time.Second, 2)
	if f.q.N != 6 || f.q.P50 != 10 {
		t.Errorf("kept 2 windows: n=%d p50=%v, want n=6 p50=10", f.q.N, f.q.P50)
	}
	if want := 9 / (0.5 + 1 + 0.9); math.Abs(f.goodput-want) > 1e-12 {
		t.Errorf("goodput %v, want %v over all windows", f.goodput, want)
	}
	if all := s.figures(time.Second, 0); all.q.N != 9 || all.q.P50 != 20 {
		t.Errorf("all windows: n=%d p50=%v, want n=9 p50=20", all.q.N, all.q.P50)
	}
}
