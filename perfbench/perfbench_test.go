package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"os"
	"testing"
	"time"

	"phoebedb/internal/lock"
	"phoebedb/internal/metrics"
	"phoebedb/internal/wire"
)

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{name: "req", id: 1, req: 1, start: 0, end: 100},
		// Overlapping children cover [10,50) once: 40.
		{name: "a", id: 2, parent: 1, req: 1, start: 10, end: 30},
		{name: "b", id: 3, parent: 1, req: 1, start: 20, end: 50},
		// Only the part inside the parent counts: [90,100) = 10.
		{name: "c", id: 4, parent: 1, req: 1, start: 90, end: 120},
		// A grandchild is charged to its own parent, not to the root.
		{name: "d", id: 5, parent: 3, req: 1, start: 25, end: 45},
	}
	self := selfTimes(spans)
	want := map[uint64]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self time %v, want %v", id, self[id], w)
		}
	}
	sum := summarize(spans)
	if got := sum.selfUsPerReq("req"); got != us(50) {
		t.Errorf("selfUsPerReq(req) = %v, want %v", got, us(50))
	}
}

func TestLayerMetricsFromCounterDeltas(t *testing.T) {
	before := snapshot{
		c: counters{
			"phoebe_txn_commits_total":                           100,
			"phoebe_mvcc_fastpath_total":                         1000,
			"phoebe_mvcc_chain_walks_total":                      10,
			"phoebe_mvcc_chain_links_total":                      30,
			"phoebe_wal_flushes_total":                           50,
			"phoebe_gc_backlog":                                  999,
			`phoebe_wait_event_micros_total{event="tuple_lock"}`: 7,
		},
		gauges: map[string]bool{"phoebe_gc_backlog": true},
	}
	after := snapshot{
		c: counters{
			"phoebe_txn_commits_total":                           300, // 200 in the window
			"phoebe_mvcc_fastpath_total":                         1300,
			"phoebe_mvcc_chain_walks_total":                      110,
			"phoebe_mvcc_chain_links_total":                      280,
			"phoebe_wal_flushes_total":                           150,
			"phoebe_gc_backlog":                                  42,
			`phoebe_wait_event_micros_total{event="tuple_lock"}`: 407,
		},
		gauges: map[string]bool{"phoebe_gc_backlog": true},
	}
	before.bd.Txns, after.bd.Txns = 10, 210
	after.bd.Nanos[metrics.CompWAL] = 400_000 // 400 µs over 200 transactions
	got := map[string]float64{}
	for _, m := range layerMetrics(layerInput{before: before, after: after, ops: 400}) {
		got[m.name] = m.value
	}
	want := map[string]float64{
		"txn.mvcc_fastpath_share":    300.0 / 400.0,
		"txn.chain_links_per_walk":   250.0 / 100.0,
		"wal.flushes_per_commit":     100.0 / 200.0,
		"wait.tuple_lock_us_per_txn": 400.0 / 200.0,
		"undo.gc_backlog_end":        42, // a gauge keeps its level
		"metrics.wal_us_per_txn":     2,
		"buffer.hit_rate":            0, // no accesses in the window
	}
	for name, w := range want {
		if v, ok := got[name]; !ok || v != w {
			t.Errorf("%s = %v (present %v), want %v", name, v, ok, w)
		}
	}
}

// TestLockTimeoutsCountTupleAndTableWaits checks that lock.timeouts
// comes from the window's failed requests: a tuple wait wrapped by the
// transaction layer, a table-lock timeout, and one that arrived as text
// over the wire protocol all count; other failures do not.
func TestLockTimeoutsCountTupleAndTableWaits(t *testing.T) {
	errs := []error{
		fmt.Errorf("payment: %w", fmt.Errorf("update %q row %d: %w", "warehouse", 7, lock.ErrLockTimeout)),
		lock.ErrLockTimeout,
		errors.New("SQL: update \"kv\" row 3: " + lock.ErrLockTimeout.Error()),
		errors.New("OVERLOADED: admission queue full"),
		fmt.Errorf("tpcc: customer not found"),
	}
	if got := countLockTimeouts(errs); got != 3 {
		t.Errorf("countLockTimeouts = %d, want 3", got)
	}
	for _, m := range layerMetrics(layerInput{lockTimeouts: countLockTimeouts(errs)}) {
		if m.name == "lock.timeouts" && m.value != 3 {
			t.Errorf("lock.timeouts = %v, want 3", m.value)
		}
	}
	var w coldWindow
	var l latencies
	w.done(&l, time.Millisecond, errs[0])
	w.done(&l, time.Millisecond, errs[3])
	if w.failed != 2 || w.timeouts != 1 {
		t.Errorf("cold-mix window: %d failed, %d timeouts; want 2 and 1", w.failed, w.timeouts)
	}
}

// TestLayerMetricsMatchBenchmarkJSON keeps the per-layer metrics the
// traced run prints in step with the names and units BENCHMARK.json
// declares.
func TestLayerMetricsMatchBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	declared := map[string]string{}
	for _, m := range spec.PerLayer {
		declared[m.Name] = m.Unit
	}
	got := layerMetrics(layerInput{})
	for _, m := range got {
		if unit, ok := declared[m.name]; !ok || unit != m.unit {
			t.Errorf("%s (%s): declared unit %q (present %v)", m.name, m.unit, unit, ok)
		}
	}
	if len(got) != len(declared) {
		t.Errorf("traced run prints %d per-layer metrics, BENCHMARK.json declares %d", len(got), len(declared))
	}
}

func TestQuantileRanksFailuresLast(t *testing.T) {
	var l latencies
	for i := 1; i <= 98; i++ {
		l.add(time.Duration(i)*time.Millisecond, committed)
	}
	l.add(0, failedReq)
	l.add(0, failedReq)
	if got := l.quantileMs(0.5, time.Hour); got != 50 {
		t.Errorf("p50 = %v ms, want 50", got)
	}
	// Rank 99 of 100 lands on a failure, which misses every limit.
	if got := l.quantileMs(0.99, 10*time.Second); got != 10_000 {
		t.Errorf("p99 = %v ms, want the 10 s ceiling", got)
	}
}

func TestTailIsMedianOverCompletionGroups(t *testing.T) {
	var l latencies
	// 5000 requests in completion order; the 4th group of 1000 is stalled.
	for i := 0; i < 5000; i++ {
		d := time.Duration(1+i%100) * time.Millisecond
		if i >= 3000 && i < 4000 {
			d = time.Second
		}
		l.addAt(int64(i), d, committed)
	}
	if got := l.tailMs(0.99, time.Hour); got != 99 {
		t.Errorf("tail p99 = %v ms, want 99 (the stalled group is one of five)", got)
	}
	if got := l.quantileMs(0.99, time.Hour); got != 1000 {
		t.Errorf("whole-window p99 = %v ms, want 1000", got)
	}
}

func TestRateIsMedianOverSubWindows(t *testing.T) {
	var l latencies
	start := time.Unix(100, 0)
	// 10 s window, 100 commits per second, except second 4, which stalls,
	// and second 7, which also completes 50 intended rollbacks.
	for sec := 0; sec < 10; sec++ {
		if sec == 4 {
			continue
		}
		for i := 0; i < 100; i++ {
			at := start.Add(time.Duration(sec)*time.Second + time.Duration(i)*time.Millisecond)
			l.addAt(at.UnixNano(), time.Millisecond, committed)
			if sec == 7 && i < 50 {
				l.addAt(at.UnixNano(), time.Millisecond, rolledBack)
			}
		}
	}
	if got := l.rate(start, 10*time.Second); got != 100 {
		t.Errorf("rate = %v/s, want 100 (median second; rollbacks are not commits)", got)
	}
}

// TestOpenLoopChargesStallToQueuedRequests stalls the first response of
// a fake server. Every request due during the stall must be timed from
// its due time, so each carries the part of the stall it waited for,
// although the generator sent it on time.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const stall = 40 * time.Millisecond
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer nc.Close()
		r := bufio.NewReader(nc)
		if _, err := readFrame(r); err != nil { // hello
			served <- err
			return
		}
		if _, err := nc.Write(wire.AppendOK(nil, 0)); err != nil {
			served <- err
			return
		}
		for i := 0; ; i++ {
			if _, err := readFrame(r); err != nil {
				served <- nil // client closed
				return
			}
			if i == 0 {
				time.Sleep(stall)
			}
			if _, err := nc.Write(wire.AppendOK(nil, 1)); err != nil {
				served <- err
				return
			}
		}
	}()

	reqs := make([]kvReq, 20) // due every 1/kvRate, all within the stall
	for i := range reqs {
		reqs[i] = kvReq{update: true, id: int64(i + 1), val: int64(i)}
	}
	w, err := driveKV(ln.Addr().String(), reqs, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if w.writes.with(committed) != len(reqs) || w.wrong != nil {
		t.Fatalf("completed %d of %d, wrong answer %v", w.writes.with(committed), len(reqs), w.wrong)
	}
	interval := time.Second / kvRate
	last := time.Duration(len(reqs)-1) * interval
	for i, s := range w.writes.s {
		if l := s.d; l < stall-last {
			t.Errorf("request %d: latency %v, want at least %v of the stall", i, l, stall-last)
		}
	}
	for i, l := range w.late {
		if l >= stall/2 {
			t.Errorf("request %d: sent %v late; the sender must not wait for responses", i, l)
		}
	}
}
