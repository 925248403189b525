package main

import (
	"net/http"
	"sync/atomic"
	"testing"
)

// TestClosedLoopCountsWindowsAndKicks checks the probe's request
// accounting: 23 requests in windows of 5 make four windows, the last
// taking 8, and a reload every 10 requests kicks the writer before
// requests 0, 10 and 20.
func TestClosedLoopCountsWindowsAndKicks(t *testing.T) {
	h := http.HandlerFunc(func(http.ResponseWriter, *http.Request) {})
	reqs := make([]request, 23)
	for i := range reqs {
		reqs[i] = request{path: "/"}
	}
	var kicks atomic.Int32 // clients kick from their own goroutines
	out, ws := closedLoop(h, reqs, 3, 5, 10, func() { kicks.Add(1) }, nil)
	if len(ws) != 4 {
		t.Fatalf("%d windows, want 4", len(ws))
	}
	if n := kicks.Load(); n != 3 {
		t.Errorf("%d kicks, want 3", n)
	}
	for i, o := range out {
		if o.req != i || o.win != min(i/5, 3) || o.status != http.StatusOK {
			t.Errorf("request %d got %+v", i, o)
		}
	}
	for w, win := range ws {
		if win.secs <= 0 || win.share <= 0 || win.share > 1 {
			t.Errorf("window %d is %+v", w, win)
		}
	}
}
