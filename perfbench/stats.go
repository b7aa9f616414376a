package main

import (
	"errors"
	"math"
	"sort"
	"strings"
	"time"

	"phoebedb/internal/lock"
)

// latencies holds exact per-request samples of one request class, each
// with its completion time. A failed or refused request misses every
// latency limit, so it ranks above every completed sample.
type latencies struct {
	s []sample
}

type status uint8

const (
	committed  status = iota
	rolledBack        // an intended rollback: answered, not a failure, not a commit
	failedReq
)

type sample struct {
	at int64 // completion, UnixNano
	d  time.Duration
	st status
}

// statusOf maps a request's error to its status.
func statusOf(err error) status {
	if err != nil {
		return failedReq
	}
	return committed
}

// failedRank stands for a failed request's latency when ranking.
const failedRank = time.Duration(math.MaxInt64)

func (l *latencies) add(d time.Duration, st status) { l.addAt(time.Now().UnixNano(), d, st) }

func (l *latencies) addAt(at int64, d time.Duration, st status) {
	l.s = append(l.s, sample{at: at, d: d, st: st})
}

func (l *latencies) merge(o *latencies) { l.s = append(l.s, o.s...) }

// count is the number of requests the class attempted.
func (l *latencies) count() int { return len(l.s) }

// with counts the samples of one status.
func (l *latencies) with(st status) int {
	n := 0
	for _, s := range l.s {
		if s.st == st {
			n++
		}
	}
	return n
}

// quantileMs returns the nearest-rank q-quantile in milliseconds over
// every attempted request. A rank that lands on a failure reports ceil,
// the caller's stand-in for "no answer within the run" (the window).
func (l *latencies) quantileMs(q float64, ceil time.Duration) float64 {
	return rankMs(l.s, q, ceil)
}

func rankMs(ss []sample, q float64, ceil time.Duration) float64 {
	ds := make([]time.Duration, len(ss))
	for i, s := range ss {
		ds[i] = s.d
		if s.st == failedReq {
			ds[i] = failedRank
		}
	}
	d := exactQuantile(ds, q)
	if d == failedRank {
		return ms(ceil)
	}
	return ms(d)
}

// Tail percentiles and throughput are taken per group of consecutive
// completions (per sub-window for throughput) and reported as the median
// over the groups: a transient stall on this shared machine then moves
// one group's figure, not the run's.
const maxGroups = 10

// tailMs is the median, over up to maxGroups groups of requests in
// completion order, of each group's nearest-rank q-quantile in
// milliseconds. Every group leaves at least ten samples beyond the
// quantile; with too few samples for two groups it is the plain quantile.
func (l *latencies) tailMs(q float64, ceil time.Duration) float64 {
	minGroup := int(math.Ceil(10 / (1 - q)))
	groups := len(l.s) / minGroup
	if groups > maxGroups {
		groups = maxGroups
	}
	if groups < 2 {
		return l.quantileMs(q, ceil)
	}
	ss := append([]sample(nil), l.s...)
	sort.Slice(ss, func(i, j int) bool { return ss[i].at < ss[j].at })
	per := make([]float64, groups)
	for g := range per {
		per[g] = rankMs(ss[g*len(ss)/groups:(g+1)*len(ss)/groups], q, ceil)
	}
	return median(per)
}

// rate is the median over maxGroups equal sub-windows of [start,
// start+elapsed) of committed requests per second.
func (l *latencies) rate(start time.Time, elapsed time.Duration) float64 {
	part := elapsed / maxGroups
	counts := make([]float64, maxGroups)
	for _, s := range l.s {
		if s.st != committed {
			continue
		}
		if g := int(time.Duration(s.at-start.UnixNano()) / part); g >= 0 && g < maxGroups {
			counts[g]++
		}
	}
	return median(counts) / part.Seconds()
}

// median sorts v in place and returns its median (0 when empty).
func median(v []float64) float64 {
	n := len(v)
	if n == 0 {
		return 0
	}
	sort.Float64s(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// exactQuantile is the nearest-rank q-quantile of durations, sorted in
// place; zero for no samples.
func exactQuantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := int(math.Ceil(q * float64(len(ds))))
	if rank < 1 {
		rank = 1
	}
	return ds[rank-1]
}

// counters is one reading of the engine's exported counters and gauges,
// keyed by registry name (vectors flattened as name{label="value"}).
type counters map[string]int64

// delta is after minus before for every counter. Gauges are levels, not
// totals, so a gauge keeps its after value.
func delta(before, after counters, gauges map[string]bool) counters {
	out := make(counters, len(after))
	for k, v := range after {
		if gauges[k] {
			out[k] = v
		} else {
			out[k] = v - before[k]
		}
	}
	return out
}

// waitMicros returns the wait-event time counter of one event.
func (c counters) waitMicros(event string) int64 {
	return c[`phoebe_wait_event_micros_total{event="`+event+`"}`]
}

// ratio is num/den, or 0 when den is 0 (the layer did no such work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// lateFrac is the share of an open loop's sends later than limit.
func lateFrac(late []time.Duration, limit time.Duration) float64 {
	n := 0
	for _, l := range late {
		if l > limit {
			n++
		}
	}
	return ratio(float64(n), float64(len(late)))
}

// isLockTimeout reports whether a failed request's error is a lock-wait
// timeout, on a table lock or a tuple (transaction-id) wait alike. The
// engine counts only the table-lock ones, so the benchmark counts them
// from its own errors. Errors that came over the wire protocol carry the
// engine's message as text.
func isLockTimeout(err error) bool {
	return err != nil && (errors.Is(err, lock.ErrLockTimeout) ||
		strings.Contains(err.Error(), lock.ErrLockTimeout.Error()))
}

// countLockTimeouts is the number of lock-wait timeouts among errs.
func countLockTimeouts(errs []error) int {
	n := 0
	for _, err := range errs {
		if isLockTimeout(err) {
			n++
		}
	}
	return n
}
