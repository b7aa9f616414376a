// Command perfbench is PhoebeDB's repository benchmark. It drives one
// workload (tpcc, kv-wire or cold-mix; see README.md) through the public
// API from a single process, checks that every answer is correct, and
// prints every metric by name with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured untraced.
// With --trace 1 the run measures an untraced window and then a traced
// one, and the metrics are the per-layer ones derived from the traced
// window's spans and counter deltas, plus the tracing overhead.
//
// Run it through run.sh from the repository root, which builds it first:
//
//	bash perfbench/run.sh --workload kv-wire --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"syscall"
	"time"

	phoebedb "phoebedb"

	"phoebedb/internal/metrics"
)

// metric is one reported number.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int // exact samples behind a percentile or median; 0 if not one
}

// outcome is what a workload run reports.
type outcome struct {
	attempted, failed int64
	checkErr          error // first failed correctness check, if any
	e2e, layers       []metric
	extra             []metric // workload-specific figures, printed but not in the last line
	fingerprint       map[string]any
}

// env carries the run's arguments to a workload.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	dir     string // working directory for this run's databases
	nproc   int
	// overlapFreeze runs cold-mix's scheduled Freeze concurrently with
	// the clients' operations instead of between them.
	overlapFreeze bool
}

// runLimit bounds a whole run, set-up included.
const runLimit = 170 * time.Second

var workloads = map[string]func(*env) (*outcome, error){
	"tpcc":     runTPCC,
	"kv-wire":  runKVWire,
	"cold-mix": runColdMix,
}

func main() {
	workload := flag.String("workload", "", "workload name: tpcc, kv-wire or cold-mix")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured window in seconds")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for databases, span files and result files")
	overlapFreeze := flag.Bool("overlap-freeze", false, "cold-mix: run the scheduled Freeze concurrently with reads and scans (shows an open engine defect)")
	flag.Parse()

	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	nproc := runtime.NumCPU()
	runtime.GOMAXPROCS(nproc)

	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		nproc:   nproc,

		overlapFreeze: *overlapFreeze,
	}
	e.dir = filepath.Join(*out, fmt.Sprintf("run-%s-%d", *workload, os.Getpid()))
	if err := os.MkdirAll(e.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	// A run that cannot finish in time (an engine hang) exits with its
	// goroutine stacks instead of a result.
	watchdog := time.AfterFunc(runLimit, func() {
		buf := make([]byte, 16<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "perfbench: %s: no result after %v; goroutines:\n%s", *workload, runLimit, buf)
		os.Exit(3)
	})
	o, err := run(e)
	watchdog.Stop()
	os.RemoveAll(e.dir)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(2)
	}
	o.fingerprint["workload"] = *workload
	o.fingerprint["seed"] = *seed
	o.fingerprint["seconds"] = *seconds
	o.fingerprint["trace"] = *trace
	o.fingerprint["nproc"] = nproc
	o.fingerprint["gomaxprocs"] = runtime.GOMAXPROCS(0)
	o.fingerprint["go_version"] = runtime.Version()
	o.fingerprint["goos_goarch"] = runtime.GOOS + "/" + runtime.GOARCH

	reported := o.e2e
	if e.trace {
		reported = o.layers
	}
	if err := report(os.Stdout, *out, *workload, *seed, *trace, o, reported); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if o.checkErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: correctness check failed: %v\n", *workload, o.checkErr)
		os.Exit(1)
	}
}

// report prints the fingerprint and every metric, writes the
// machine-readable result file, and ends with the one-line JSON result.
func report(w *os.File, outDir, workload string, seed int64, trace int, o *outcome, reported []metric) error {
	fp, err := json.Marshal(o.fingerprint)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "# fingerprint %s\n", fp)
	type jsonMetric struct {
		Value   float64 `json:"value"`
		Unit    string  `json:"unit"`
		Samples int     `json:"samples,omitempty"`
	}
	printMetrics := func(prefix string, list []metric) map[string]jsonMetric {
		out := make(map[string]jsonMetric, len(list))
		for _, m := range list {
			line := fmt.Sprintf("%s%-34s %14.6g %s", prefix, m.name, m.value, m.unit)
			if m.samples > 0 {
				line += fmt.Sprintf("  (n=%d)", m.samples)
			}
			fmt.Fprintln(w, line)
			out[m.name] = jsonMetric{Value: m.value, Unit: m.unit, Samples: m.samples}
		}
		return out
	}
	ms := printMetrics("", reported)
	full := map[string]any{
		"correct":     o.checkErr == nil,
		"attempted":   o.attempted,
		"failed":      o.failed,
		"metrics":     ms,
		"extra":       printMetrics("# extra ", o.extra),
		"fingerprint": o.fingerprint,
	}
	if o.checkErr != nil {
		full["check_error"] = o.checkErr.Error()
	}
	buf, err := json.MarshalIndent(full, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, fmt.Sprintf("result-%s-seed%d-trace%d.json", workload, seed, trace))
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	// The last line: only the four contract keys, metrics without the
	// sample counts (those are in the lines above and the result file).
	type lastMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := make(map[string]lastMetric, len(ms))
	for k, v := range ms {
		last[k] = lastMetric{Value: v.Value, Unit: v.Unit}
	}
	buf, err = json.Marshal(struct {
		Correct   bool                  `json:"correct"`
		Attempted int64                 `json:"attempted"`
		Failed    int64                 `json:"failed"`
		Metrics   map[string]lastMetric `json:"metrics"`
	}{o.checkErr == nil, o.attempted, o.failed, last})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(buf))
	return err
}

// baseOptions is the engine configuration every workload starts from:
// Workers = nproc, WAL fsync on with the default group-commit wait, and
// every other option at its engine default.
func baseOptions(dir string, nproc int) phoebedb.Options {
	return phoebedb.Options{Dir: dir, Workers: nproc, WALSync: true}
}

// openDB creates opts.Dir and opens a database in it.
func openDB(opts phoebedb.Options) (*phoebedb.DB, error) {
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	return phoebedb.Open(opts)
}

// configFingerprint records the storage and engine configuration beside
// every number, resolving zero options to the defaults the engine applies.
func configFingerprint(o phoebedb.Options) map[string]any {
	orDefault := func(v, def int64) int64 {
		if v <= 0 {
			return def
		}
		return v
	}
	groupWait := o.GroupCommitWait
	if groupWait == 0 && o.WALSync {
		groupWait = 400 * time.Microsecond
	}
	return map[string]any{
		"workers":             o.Workers,
		"wal_sync":            o.WALSync,
		"group_commit_wait":   groupWait.String(),
		"buffer_bytes":        orDefault(o.BufferBytes, 256<<20),
		"cold_cache_bytes":    orDefault(o.ColdCacheBytes, 4<<20),
		"lock_timeout":        time.Duration(orDefault(int64(o.LockTimeout), int64(2*time.Second))).String(),
		"isolation":           fmt.Sprint(o.Isolation),
		"slots_per_worker":    orDefault(int64(o.SlotsPerWorker), 32),
		"disable_compaction":  o.DisableColdCompaction,
		"disable_vectorized":  o.DisableVectorizedScan,
		"disable_rfa":         o.DisableRFA,
		"disable_read_fast":   o.DisableReadFastPath,
		"pessimistic_index":   o.PessimisticIndex,
		"maintain_every_txns": orDefault(int64(o.MaintainEvery), 64),
	}
}

// snapshot reads the engine's exported counters, the component-time
// breakdown and the cold-tier counters at one instant.
type snapshot struct {
	c      counters
	gauges map[string]bool
	hists  map[string]metrics.HistSnapshot
	bd     metrics.Breakdown
	cold   phoebedb.ColdStats
}

func takeSnapshot(db *phoebedb.DB) snapshot {
	s := snapshot{c: counters{}, gauges: map[string]bool{}, hists: map[string]metrics.HistSnapshot{}}
	for _, smp := range db.Metrics().Samples() {
		s.c[smp.Name] = smp.Value
		if smp.Kind == metrics.KindGauge {
			s.gauges[smp.Name] = true
		}
	}
	for _, h := range db.Metrics().Histograms() {
		s.hists[h.Name+h.Label] = h.Snap
	}
	s.bd = db.Recorder().Aggregate()
	s.cold = db.ColdStats()
	return s
}

// window is one measured window's requests, split into the read and
// write classes of the workload.
type window struct {
	start         time.Time
	elapsed       time.Duration
	reads, writes latencies
}

// endToEnd computes the cross-workload end-to-end metrics of a window,
// and the further figures printed beside them. rssMB is the post-GC
// resident set taken when the measured window ends.
func endToEnd(st setupStats, w *window, o *outcome, amp, rssMB float64) (e2e, extra []metric) {
	var all latencies
	all.merge(&w.reads)
	all.merge(&w.writes)
	ceil := w.elapsed
	e2e = []metric{
		{name: "setup_s", unit: "s", value: st.seconds, samples: st.n},
		{name: "throughput_ops_s", unit: "1/s", value: all.rate(w.start, w.elapsed), samples: maxGroups},
		{name: "p50_ms", unit: "ms", value: all.quantileMs(0.50, ceil), samples: all.count()},
		{name: "p90_ms", unit: "ms", value: all.tailMs(0.90, ceil), samples: all.count()},
		{name: "success_rate", unit: "ratio", value: 1 - ratio(float64(o.failed), float64(o.attempted))},
		{name: "rss_mb", unit: "MiB", value: rssMB},
		{name: "space_amp", unit: "ratio", value: amp},
	}
	extra = []metric{
		{name: "p99_ms", unit: "ms", value: all.tailMs(0.99, ceil), samples: all.count()},
		{name: "read_p99_ms", unit: "ms", value: w.reads.tailMs(0.99, ceil), samples: w.reads.count()},
		{name: "write_p99_ms", unit: "ms", value: w.writes.tailMs(0.99, ceil), samples: w.writes.count()},
		{name: "error_rate", unit: "ratio", value: ratio(float64(o.failed), float64(o.attempted))},
		{name: "peak_rss_mb", unit: "MiB", value: peakRSSMB()},
	}
	return e2e, extra
}

// rssAfterGCMB is the process's resident set in MiB after a forced
// collection has returned free memory to the OS: the memory live state
// holds, without the garbage the collector's timing leaves.
func rssAfterGCMB() float64 {
	debug.FreeOSMemory()
	buf, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmRSS:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// diskBytes sums the sizes of the regular files under dir.
func diskBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}

// logicalBytes sums the user data of every visible row of the tables:
// 8 bytes per number, the length of each string.
func logicalBytes(db *phoebedb.DB, tables []string) (int64, error) {
	var total int64
	err := db.Execute(func(tx *phoebedb.Tx) error {
		total = 0
		for _, t := range tables {
			err := tx.ScanTable(t, func(_ phoebedb.RowID, row phoebedb.Row) bool {
				for _, v := range row {
					if v.Kind == phoebedb.TString {
						total += int64(len(v.S))
					} else {
						total += 8
					}
				}
				return true
			})
			if err != nil {
				return err
			}
		}
		return nil
	})
	return total, err
}

// spaceAmp is on-disk bytes under dir over the tables' logical bytes.
func spaceAmp(db *phoebedb.DB, dir string, tables []string) (float64, error) {
	disk, err := diskBytes(dir)
	if err != nil {
		return 0, err
	}
	logical, err := logicalBytes(db, tables)
	if err != nil {
		return 0, err
	}
	return ratio(float64(disk), float64(logical)), nil
}

// discard deletes a closed set-up's database directory and returns its
// memory to the OS, so the next set-up starts from the same footprint.
func discard(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	debug.FreeOSMemory()
}

// setupStats describes a run's set-ups.
type setupStats struct {
	n       int
	seconds float64 // median set-up time: setup_s
}

// setUpRepeatedly runs setUp n times, each in a fresh directory under
// e.dir, discards all but the last database, and returns the last with
// its directory and the set-ups' statistics.
func setUpRepeatedly[T interface{ close() }](e *env, n int, setUp func(dir string) (T, error)) (T, string, setupStats, error) {
	var times []float64
	for i := 0; ; i++ {
		dir := filepath.Join(e.dir, fmt.Sprintf("db%d", i))
		t0 := time.Now()
		v, err := setUp(dir)
		if err != nil {
			return v, "", setupStats{}, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
		if i == n-1 {
			return v, dir, setupStats{n: n, seconds: median(times)}, nil
		}
		v.close()
		discard(dir)
	}
}
