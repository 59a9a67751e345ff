package main

import (
	"net"
	"testing"
)

func TestTopPercentileNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},    // the median has only 9 samples beyond it
		{20, 50},   // … and 10 here
		{100, 90},  // p90 is rank 90: 10 beyond
		{999, 90},  // p99 is rank 990: 9 beyond
		{1000, 99}, // p99 is rank 990: 10 beyond
		{9999, 99}, // p99.9 is rank 9990: 9 beyond
		{10000, 99.9},
		{1000000, 99.999},
	}
	for _, c := range cases {
		if got := topPercentile(c.n); got != c.want {
			t.Errorf("topPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // 100 … 1, unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {1, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("p99 of nothing = %v, want 0", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
}

func TestLoadGuardCountsWhatRuns(t *testing.T) {
	var c liveCount
	c.add(1)
	c.add(1)
	c.add(-1)
	c.add(1)
	if c.now.Load() != 2 || c.peak.Load() != 2 {
		t.Fatalf("now=%d peak=%d, want 2 and 2", c.now.Load(), c.peak.Load())
	}
	c.add(1)
	if err := loadGuard(c.peak.Load(), 1, 2); err == nil {
		t.Error("three generator goroutines at once on 2 CPUs must be refused")
	}
	if err := loadGuard(2, 3, 2); err == nil {
		t.Error("three connections at once on 2 CPUs must be refused")
	}
	if err := loadGuard(2, 2, 2); err != nil {
		t.Errorf("two of each on 2 CPUs refused: %v", err)
	}
}

func TestDialedConnectionsAreCounted(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
		}
	}()
	base := liveConns.now.Load()
	dial := countingDialer(&wireCounters{})
	a, err := dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	b, err := dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if got := liveConns.now.Load() - base; got != 2 {
		t.Errorf("two dialed connections counted as %d", got)
	}
	a.Close()
	a.Close()
	b.Close()
	if got := liveConns.now.Load() - base; got != 0 {
		t.Errorf("after closing, %d connections still counted", got)
	}
}
