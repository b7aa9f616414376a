package main

import (
	"strings"
	"time"

	"phoebedb/internal/metrics"
)

// Span names the benchmark records, one per layer boundary it calls.
const (
	spanReq    = "req"         // a request, from the client's call to its answer
	spanQueue  = "sched.queue" // Execute called -> transaction closure starts on a slot
	spanBody   = "txn.body"    // the transaction closure
	spanCommit = "wal.commit"  // closure returned -> Execute returned (commit, group flush)
	spanSQL    = "sql.exec"    // an ExecSQL call
	spanRTT    = "wire.rtt"    // frame sent -> response frame received
	spanFreeze = "frozen.freeze"
)

// coreOps are the Tx calls traced as core.<op> spans.
var coreOps = []string{"Insert", "Get", "GetByIndex", "ScanIndex", "Modify", "Delete"}

// components names the Exp 7 breakdown components in metric names.
var components = [metrics.NumComponents]string{"compute", "wal", "mvcc", "latch", "lock", "buffer", "gc"}

// layerInput is what the per-layer metrics are derived from: counter
// readings bracketing the traced window, the window's spans, and the
// benchmark's own counts for it.
type layerInput struct {
	before, after snapshot
	spans         spanSummary
	ops           float64         // requests the benchmark issued in the window
	lockTimeouts  int             // the window's requests that failed on a lock-wait timeout
	scanRows      float64         // rows covered by the window's scan statements
	late          []time.Duration // open-loop generator lateness per request
	lateLimit     time.Duration   // lateness above this counts as late
	overhead      float64         // tracing cost: throughput lost, or an open loop's median latency rise
}

// layerMetrics derives every per-layer metric. A layer the workload does
// not reach reports 0.
func layerMetrics(in layerInput) []metric {
	d := delta(in.before.c, in.after.c, in.after.gauges)
	txns := float64(d["phoebe_txn_commits_total"])
	perTxn := func(v int64) float64 { return ratio(float64(v), txns) }
	waitUsPerTxn := func(ev string) float64 { return perTxn(d.waitMicros(ev)) }
	var out []metric
	add := func(name, unit string, v float64) { out = append(out, metric{name: name, unit: unit, value: v}) }
	addSpan := func(name, span string, q float64) {
		out = append(out, metric{name: name, unit: "us", value: in.spans.durUs(span, q), samples: len(in.spans.dur[span])})
	}

	// sched
	addSpan("sched.queue_wait_us.p50", spanQueue, 0.50)
	addSpan("sched.queue_wait_us.p99", spanQueue, 0.99)
	add("sched.stolen_per_txn", "count", perTxn(d["phoebe_sched_stolen_total"]))
	add("sched.yields_per_txn", "count", perTxn(d["phoebe_sched_yields_high_total"]+d["phoebe_sched_yields_low_total"]))
	add("wait.sched_yield_us_per_txn", "us", waitUsPerTxn("sched_yield"))

	// core (B-Tree and latches included), and the Exp 7 breakdown
	for _, op := range coreOps {
		addSpan("core."+strings.ToLower(op)+"_us.p50", "core."+op, 0.50)
		addSpan("core."+strings.ToLower(op)+"_us.p99", "core."+op, 0.99)
	}
	add("core.txn_logic_self_us_per_req", "us", in.spans.selfUsPerReq(spanBody))
	bdTxns := float64(in.after.bd.Txns - in.before.bd.Txns)
	for c, name := range components {
		add("metrics."+name+"_us_per_txn", "us", ratio(float64(in.after.bd.Nanos[c]-in.before.bd.Nanos[c])/1e3, bdTxns))
	}

	// txn (MVCC)
	fast, walks := d["phoebe_mvcc_fastpath_total"], d["phoebe_mvcc_chain_walks_total"]
	add("txn.mvcc_fastpath_share", "ratio", ratio(float64(fast), float64(fast+walks)))
	add("txn.chain_links_per_walk", "count", ratio(float64(d["phoebe_mvcc_chain_links_total"]), float64(walks)))
	add("txn.aborts_per_txn", "count", perTxn(d["phoebe_txn_aborts_total"]))

	// lock
	add("lock.tuple_waits_per_txn", "count", perTxn(d["phoebe_lock_tuple_waits_total"]))
	add("lock.table_waits_per_txn", "count", perTxn(d["phoebe_lock_table_waits_total"]))
	add("lock.timeouts", "count", float64(in.lockTimeouts))
	add("wait.tuple_lock_us_per_txn", "us", waitUsPerTxn("tuple_lock"))
	add("wait.table_lock_us_per_txn", "us", waitUsPerTxn("table_lock"))

	// wal
	addSpan("wal.commit_us.p50", spanCommit, 0.50)
	addSpan("wal.commit_us.p99", spanCommit, 0.99)
	add("wal.flushes_per_commit", "count", perTxn(d["phoebe_wal_flushes_total"]))
	add("wal.bytes_per_txn", "bytes", perTxn(d["phoebe_io_wal_write_bytes_total"]))
	add("wal.group_waits_per_txn", "count", perTxn(d["phoebe_wal_group_waits_total"]))
	avoided, remote := d["phoebe_wal_rfa_avoided_total"], d["phoebe_wal_remote_flush_waits_total"]
	add("wal.rfa_avoided_share", "ratio", ratio(float64(avoided), float64(avoided+remote)))
	add("wait.wal_flush_us_per_txn", "us", waitUsPerTxn("wal_flush"))
	add("wait.wal_group_lead_us_per_txn", "us", waitUsPerTxn("wal_group_lead"))

	// undo (GC)
	add("undo.gc_reclaimed_per_txn", "count", perTxn(d["phoebe_gc_reclaimed_total"]))
	add("undo.gc_backlog_end", "count", float64(d["phoebe_gc_backlog"]))

	// buffer
	acc, hits := d["phoebe_buffer_accesses_total"], d["phoebe_buffer_hits_total"]
	add("buffer.hit_rate", "ratio", ratio(float64(hits), float64(acc)))
	add("buffer.evictions_per_op", "count", ratio(float64(d["phoebe_buffer_evictions_total"]), in.ops))
	add("io.data_read_bytes_per_op", "bytes", ratio(float64(d["phoebe_io_data_read_bytes_total"]), in.ops))
	add("wait.buffer_io_us_per_op", "us", ratio(float64(d.waitMicros("buffer_io")), in.ops))

	// frozen (cold tier)
	cb, ca := in.before.cold, in.after.cold
	lookups := float64(ca.Lookups - cb.Lookups)
	add("frozen.segments_per_lookup", "count", ratio(float64(ca.SegmentsProbed-cb.SegmentsProbed), lookups))
	add("frozen.bloom_negative_rate", "ratio", ratio(float64(ca.BloomNegatives-cb.BloomNegatives), lookups))
	cacheHits, cacheMisses := ca.CacheHits-cb.CacheHits, ca.CacheMisses-cb.CacheMisses
	add("frozen.block_cache_hit_rate", "ratio", ratio(float64(cacheHits), float64(cacheHits+cacheMisses)))
	frozeBytes := float64(ca.FreezeBytes - cb.FreezeBytes)
	add("frozen.write_amp", "ratio", ratio(frozeBytes+float64(ca.CompactBytes-cb.CompactBytes), frozeBytes))
	add("frozen.compression", "ratio", ratio(float64(ca.RawBytes-cb.RawBytes), frozeBytes))
	out = append(out, metric{name: "frozen.freeze_ms.p50", unit: "ms",
		value: in.spans.durUs(spanFreeze, 0.50) / 1e3, samples: len(in.spans.dur[spanFreeze])})
	add("frozen.compactions", "count", float64(ca.Compactions-cb.Compactions))

	// sql (+ pax vectorized scans)
	addSpan("sql.exec_us.p50", spanSQL, 0.50)
	ph, pm := d["phoebe_sql_plan_cache_hits_total"], d["phoebe_sql_plan_cache_misses_total"]
	add("sql.plan_cache_hit_rate", "ratio", ratio(float64(ph), float64(ph+pm)))
	var scanTime time.Duration
	for _, dd := range in.spans.dur[spanSQL] {
		scanTime += dd
	}
	add("sql.scan_rows_per_s", "1/s", ratio(in.scanRows, scanTime.Seconds()))

	// wire
	addSpan("wire.rtt_us.p50", spanRTT, 0.50)
	addSpan("wire.rtt_us.p99", spanRTT, 0.99)
	qw := in.after.hists["phoebe_server_queue_wait"]
	qb := in.before.hists["phoebe_server_queue_wait"]
	for i := range qw.Counts {
		qw.Counts[i] -= qb.Counts[i]
	}
	qw.Count -= qb.Count
	qw.Sum -= qb.Sum
	add("wire.queue_wait_us.p99", "us", us(qw.Quantile(0.99)))
	add("wire.bytes_per_stmt", "bytes", ratio(float64(d["phoebe_server_bytes_in"]+d["phoebe_server_bytes_out"]), in.ops))
	add("wire.rejected", "count", float64(d[`phoebe_server_rejected{reason="overloaded"}`]+d[`phoebe_server_rejected{reason="connections"}`]))

	// the open-loop generator and the tracing itself
	add("gen.late_frac", "ratio", lateFrac(in.late, in.lateLimit))
	out = append(out, metric{name: "gen.late_us.p99", unit: "us", value: us(exactQuantile(in.late, 0.99)), samples: len(in.late)})
	add("trace.overhead_frac", "ratio", in.overhead)
	return out
}
