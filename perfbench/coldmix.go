package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	phoebedb "phoebedb"

	"phoebedb/internal/tpcc"
)

// cold-mix: one table mostly demoted into the levelled cold tier, larger
// than the program's caches: the frozen raw bytes are at least
// coldMinCacheMultiple times the cold block cache, and the loaded rows
// left hot outgrow the buffer budget. Closed-loop clients run a fixed
// seeded sequence of point-read transactions over the loaded ids (some
// deleted: by index they miss in the B-Tree, by row id the bloom filters
// answer), small inserts on the hot tail and windowed SQL aggregates over
// the loaded seq range, while the generator freezes the oldest hot pages
// (loaded rows inside the scan windows) on a fixed schedule, so reads and
// scans see the same rows move from the hot pages to the cold tier, and
// the engine's background compaction overlaps them. Each scheduled
// Freeze runs with the clients paused between operations (see
// driveCold). It is the workload where frozen, buffer eviction and the
// PAX/vectorized scan path do most of the work.
const (
	coldRows             = 200_000
	coldLoadBatch        = 1000
	coldDeleteEvery      = 16      // ids with (id-1) % 16 == 0 are deleted before freezing
	coldFrozenRows       = 160_000 // loaded ids frozen at set-up; the rest stay hot
	coldBufferBytes      = 8 << 20
	coldMinCacheMultiple = 5
	coldReadsPerTxn      = 8
	coldInsertsPerTxn    = 4
	coldScanWindow       = 20_000 // seq values covered by one aggregate
	coldSetupFreezePages = 32
	coldFreezePages      = 2 // per scheduled Freeze
	coldFreezeEvery      = 250 * time.Millisecond
	coldWarmupOps        = 400 // per client, the same mix as measured
	coldSetups           = 3   // set-ups per run; setup_s is their median
	// Out of every 100 operations of a client: op 50 is a scan, the other
	// multiples of 5 are inserts (19), the rest point-read transactions (80).
	coldCycle = 100
)

var coldTables = []string{"cold"}

// The generated row for id (seq = id-1): every column is a function of id.
func coldScore(seq int64) float64 { return float64(seq % 1000) }
func coldTag(seq int64) string    { return "tag-" + strconv.FormatInt(seq%251, 10) }
func coldPad(id int64) string     { return kvB(id) + kvB(id+1) + kvB(id+2) }

func coldRow(id, seq int64) phoebedb.Row {
	return phoebedb.Row{
		phoebedb.Int(id), phoebedb.Int(seq), phoebedb.Float(coldScore(seq)),
		phoebedb.Int(seq % 100), phoebedb.Str(coldTag(seq)), phoebedb.Str(coldPad(id)),
	}
}

func coldDeleted(id int64) bool { return id <= coldRows && (id-1)%coldDeleteEvery == 0 }

// coldLive is the number of live loaded rows among ids 1..n.
func coldLive(n int64) int { return int(n - (n+coldDeleteEvery-1)/coldDeleteEvery) }

// coldExpected is the count and sum(score) of live loaded rows with seq
// in [lo, lo+coldScanWindow).
func coldExpected(lo int64) (count int64, sum float64) {
	for seq := lo; seq < lo+coldScanWindow; seq++ {
		if !coldDeleted(seq + 1) {
			count++
			sum += coldScore(seq)
		}
	}
	return count, sum
}

// coldDB is a loaded cold-mix database.
type coldDB struct {
	db       *phoebedb.DB
	opts     phoebedb.Options
	rids     []phoebedb.RowID // row id of each loaded id, at index id-1
	inserted int64            // rows inserted since the load
	// overlapFreeze lets the scheduled Freeze run while the clients'
	// operations are in flight (--overlap-freeze; see driveCold).
	overlapFreeze bool
}

func (c *coldDB) close() { c.db.Close() }

// coldSetup loads the table, deletes every 16th row, freezes and
// compacts the first coldFrozenRows loaded ids, then warms the database
// with the measured mix. It fails unless the cold tier outgrows the block
// cache and the hot pages outgrow the buffer budget.
func coldSetup(e *env, dir string) (*coldDB, error) {
	opts := baseOptions(dir, e.nproc)
	opts.BufferBytes = coldBufferBytes
	db, err := openDB(opts)
	if err != nil {
		return nil, err
	}
	c := &coldDB{db: db, opts: opts, rids: make([]phoebedb.RowID, coldRows), overlapFreeze: e.overlapFreeze}
	fail := func(err error) (*coldDB, error) {
		db.Close()
		return nil, err
	}
	if err := db.CreateTable("cold", phoebedb.NewSchema(
		phoebedb.Column{Name: "id", Type: phoebedb.TInt64},
		phoebedb.Column{Name: "seq", Type: phoebedb.TInt64},
		phoebedb.Column{Name: "score", Type: phoebedb.TFloat64},
		phoebedb.Column{Name: "hits", Type: phoebedb.TInt64},
		phoebedb.Column{Name: "tag", Type: phoebedb.TString},
		phoebedb.Column{Name: "pad", Type: phoebedb.TString},
	)); err != nil {
		return fail(err)
	}
	if err := db.CreateIndex("cold", "cold_pk", []string{"id"}, true); err != nil {
		return fail(err)
	}
	for lo := int64(1); lo <= coldRows; lo += coldLoadBatch {
		lo := lo
		err := db.Execute(func(tx *phoebedb.Tx) error {
			for id := lo; id < lo+coldLoadBatch && id <= coldRows; id++ {
				rid, err := tx.Insert("cold", coldRow(id, id-1))
				if err != nil {
					return err
				}
				c.rids[id-1] = rid
			}
			return nil
		})
		if err != nil {
			return fail(fmt.Errorf("load: %w", err))
		}
	}
	err = db.Execute(func(tx *phoebedb.Tx) error {
		for id := int64(1); id <= coldRows; id += coldDeleteEvery {
			if err := tx.Delete("cold", c.rids[id-1]); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return fail(fmt.Errorf("delete: %w", err))
	}
	for i := 0; i < 3; i++ {
		db.CollectGarbage() // release undo twins, erase tombstones
	}
	// Freeze takes the oldest pages first, so this freezes a prefix of
	// the loaded ids, ending within coldSetupFreezePages of coldFrozenRows.
	for frozen := 0; frozen < coldLive(coldFrozenRows); {
		n, err := db.Freeze(coldSetupFreezePages, ^uint32(0))
		if err != nil {
			return fail(fmt.Errorf("freeze: %w", err))
		}
		if n == 0 {
			return fail(fmt.Errorf("freeze stopped at %d rows", frozen))
		}
		frozen += n
	}
	if _, err := db.CompactCold(); err != nil {
		return fail(fmt.Errorf("compact: %w", err))
	}
	cacheBytes := configFingerprint(opts)["cold_cache_bytes"].(int64)
	if st := db.ColdStats(); st.RawBytes < coldMinCacheMultiple*cacheBytes {
		return fail(fmt.Errorf("cold tier holds %d raw bytes, want at least %d x the %d-byte block cache",
			st.RawBytes, coldMinCacheMultiple, cacheBytes))
	}
	w := driveCold(c, e.nproc, e.seed+1, 0, coldWarmupOps, nil)
	if w.failed > 0 || w.wrong != nil {
		return fail(fmt.Errorf("warm-up: %d failed, first %v; wrong answer: %v", w.failed, w.firstErr, w.wrong))
	}
	c.inserted = w.inserted
	if res := db.Stats().BufferResidentBytes; res <= coldBufferBytes {
		return fail(fmt.Errorf("warm-up left %d resident bytes, want more than the %d-byte buffer budget", res, coldBufferBytes))
	}
	return c, nil
}

// coldWindow records one measured window of the mix: point-read
// transactions are its reads, insert transactions its writes.
type coldWindow struct {
	window
	scans      latencies
	committed  int64
	failed     int64
	timeouts   int64 // failed on a lock-wait timeout
	firstErr   error
	wrong      error
	inserted   int64 // rows inserted by committed insert transactions
	scanRows   int64
	freezes    int
	frozenRows int64
	freezeErr  error
}

func (w *coldWindow) attempted() int64 {
	return int64(w.reads.count() + w.writes.count() + w.scans.count())
}

// driveCold runs nclients closed-loop clients over the fixed operation
// sequence, for dur (or, with dur 0, ops operations per client), while
// the generator calls Freeze every coldFreezeEvery (only when timed).
// Client c draws its keys from seed and c, and numbers its inserted ids
// from seed and c so no two windows or clients collide.
//
// Each Freeze holds gate exclusively, and each client operation holds it
// shared, so a Freeze waits for the operations in flight and the next
// ones wait for it; an operation's latency starts once it holds gate.
// The engine's Freeze is not atomic towards readers: it detaches the
// pages from the hot store before the cold tier holds their rows, so a
// point read or scan in between misses live rows. With overlapFreeze
// the gate is not taken, and the correctness checks catch that.
func driveCold(c *coldDB, nclients int, seed int64, dur time.Duration, ops int, tr *tracer) *coldWindow {
	var (
		mu   sync.Mutex
		gate sync.RWMutex
		out  coldWindow
		wg   sync.WaitGroup
	)
	lock, unlock, rlock, runlock := gate.Lock, gate.Unlock, gate.RLock, gate.RUnlock
	if c.overlapFreeze {
		lock, unlock, rlock, runlock = func() {}, func() {}, func() {}, func() {}
	}
	start := time.Now()
	deadline := start.Add(dur)
	stop := make(chan struct{})
	freezeDone := make(chan struct{})
	go func() {
		defer close(freezeDone)
		if dur <= 0 {
			return
		}
		sb := tr.buf()
		tick := time.NewTicker(coldFreezeEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			lock()
			t0 := time.Now()
			n, err := c.db.Freeze(coldFreezePages, ^uint32(0))
			t1 := time.Now()
			unlock()
			sb.record(spanFreeze, 0, 0, 0, t0, t1)
			mu.Lock()
			out.freezes++
			out.frozenRows += int64(n)
			if err != nil && out.freezeErr == nil {
				out.freezeErr = err
			}
			mu.Unlock()
		}
	}()
	for cl := 0; cl < nclients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			var local coldWindow
			sb := tr.buf()
			r := rand.New(rand.NewSource(seed*1_000_003 + int64(cl)*7919))
			nextID := coldRows + 1 + (seed%1000)*10_000_000_000 + int64(cl)*1_000_000_000
			for k := 0; dur > 0 || k < ops; k++ {
				if dur > 0 && time.Now().After(deadline) {
					break
				}
				rlock()
				switch {
				case k%coldCycle == coldCycle/2:
					coldScan(c.db, r, sb, &local)
				case k%5 == 0:
					coldInsert(c.db, &nextID, sb, &local)
				default:
					coldRead(c, r, sb, &local)
				}
				runlock()
			}
			mu.Lock()
			defer mu.Unlock()
			out.reads.merge(&local.reads)
			out.writes.merge(&local.writes)
			out.scans.merge(&local.scans)
			out.committed += local.committed
			out.failed += local.failed
			out.timeouts += local.timeouts
			out.inserted += local.inserted
			out.scanRows += local.scanRows
			out.firstErr = firstErr(out.firstErr, local.firstErr)
			out.wrong = firstErr(out.wrong, local.wrong)
		}(cl)
	}
	wg.Wait()
	out.start, out.elapsed = start, time.Since(start)
	close(stop)
	<-freezeDone
	return &out
}

// done records a finished operation's latency and outcome.
func (w *coldWindow) done(l *latencies, el time.Duration, err error) bool {
	l.add(el, statusOf(err))
	if err != nil {
		w.failed++
		if isLockTimeout(err) {
			w.timeouts++
		}
		w.firstErr = firstErr(w.firstErr, err)
		return false
	}
	w.committed++
	return true
}

// coldRead is one transaction of uniform point reads over the loaded
// ids, alternately by the id index and by row id. Deleted ids must read
// not-found and live ids their generated row.
func coldRead(c *coldDB, r *rand.Rand, sb *spanBuf, w *coldWindow) {
	ids := make([]int64, coldReadsPerTxn)
	for i := range ids {
		ids[i] = 1 + r.Int63n(coldRows)
	}
	var wrong error
	err, el := execTx(c.db, sb, func(tx tpcc.Client) error {
		for i, id := range ids {
			var row phoebedb.Row
			var found bool
			var err error
			if i%2 == 0 {
				_, row, found, err = tx.GetByIndex("cold", "cold_pk", phoebedb.Int(id))
			} else {
				row, found, err = tx.Get("cold", c.rids[id-1])
			}
			if err != nil {
				return err
			}
			if found == coldDeleted(id) || (found && !coldRowEqual(row, coldRow(id, id-1))) {
				wrong = fmt.Errorf("read id %d (by index %v): found=%v row=%v", id, i%2 == 0, found, row)
			}
		}
		return nil
	})
	if w.done(&w.reads, el, err) {
		w.wrong = firstErr(w.wrong, wrong)
	}
}

// coldInsert appends a few new rows on the hot tail.
func coldInsert(db *phoebedb.DB, nextID *int64, sb *spanBuf, w *coldWindow) {
	first := *nextID
	*nextID += coldInsertsPerTxn
	err, el := execTx(db, sb, func(tx tpcc.Client) error {
		for id := first; id < first+coldInsertsPerTxn; id++ {
			// seq continues past the loaded range, so no scan window sees it.
			if _, err := tx.Insert("cold", coldRow(id, id-1)); err != nil {
				return err
			}
		}
		return nil
	})
	if w.done(&w.writes, el, err) {
		w.inserted += coldInsertsPerTxn
	}
}

// coldScan runs one windowed aggregate through SQL and checks it against
// the generator's count and sum.
func coldScan(db *phoebedb.DB, r *rand.Rand, sb *spanBuf, w *coldWindow) {
	lo := r.Int63n(coldRows - coldScanWindow)
	q := fmt.Sprintf("SELECT count(*), sum(score) FROM cold WHERE seq >= %d AND seq < %d", lo, lo+coldScanWindow)
	t0 := time.Now()
	res, err := db.ExecSQL(q)
	t1 := time.Now()
	if sb != nil {
		id := sb.record(spanReq, 0, 0, 0, t0, t1)
		sb.record(spanSQL, 0, id, id, t0, t1)
	}
	if err != nil {
		err = fmt.Errorf("%s: %w", q, err)
	}
	if !w.done(&w.scans, t1.Sub(t0), err) {
		return
	}
	w.scanRows += coldScanWindow
	count, sum := coldExpected(lo)
	if len(res.Rows) != 1 || len(res.Rows[0]) != 2 || res.Rows[0][0].I != count || res.Rows[0][1].F != sum {
		w.wrong = firstErr(w.wrong, fmt.Errorf("%s: got %v, want count %d sum %v", q, res.Rows, count, sum))
	}
}

func coldRowEqual(a, b phoebedb.Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].I != b[i].I || a[i].F != b[i].F || a[i].S != b[i].S {
			return false
		}
	}
	return true
}

// checkColdFinal verifies that every row the inserts committed is
// present: the table holds exactly the live loaded rows plus them.
func checkColdFinal(db *phoebedb.DB, inserted int64) error {
	res, err := db.ExecSQL("SELECT count(*) FROM cold")
	if err != nil {
		return err
	}
	live := int64(coldLive(coldRows))
	if len(res.Rows) != 1 || res.Rows[0][0].I != live+inserted {
		return fmt.Errorf("cold holds %v rows, want %d loaded + %d inserted", res.Rows, live, inserted)
	}
	return nil
}

func runColdMix(e *env) (*outcome, error) {
	c, dir, setup, err := setUpRepeatedly(e, coldSetups, func(dir string) (*coldDB, error) { return coldSetup(e, dir) })
	if err != nil {
		return nil, err
	}
	defer c.close()
	db, inserted := c.db, c.inserted

	o := &outcome{fingerprint: configFingerprint(c.opts)}
	st := db.ColdStats()
	o.fingerprint["cold_rows"] = coldRows
	o.fingerprint["cold_raw_bytes"] = st.RawBytes
	o.fingerprint["cold_segments"] = st.Segments
	o.fingerprint["cold_clients"] = e.nproc
	o.fingerprint["cold_freeze_every"] = coldFreezeEvery.String()
	o.fingerprint["cold_overlap_freeze"] = c.overlapFreeze
	o.fingerprint["setups"] = coldSetups

	var w *coldWindow
	if e.trace {
		half := e.seconds / 2
		plain := driveCold(c, e.nproc, e.seed+2, half, 0, nil)
		tr := newTracer()
		before := takeSnapshot(db)
		w = driveCold(c, e.nproc, e.seed+3, half, 0, tr)
		after := takeSnapshot(db)
		spans := tr.all()
		if err := writeSpans(filepath.Join(filepath.Dir(e.dir), "spans-cold-mix.tsv.gz"), spans); err != nil {
			return nil, err
		}
		plainTput := float64(plain.committed) / plain.elapsed.Seconds()
		tracedTput := float64(w.committed) / w.elapsed.Seconds()
		o.layers = layerMetrics(layerInput{
			before: before, after: after, spans: summarize(spans),
			ops: float64(w.attempted()), scanRows: float64(w.scanRows), lockTimeouts: int(w.timeouts),
			overhead: 1 - ratio(tracedTput, plainTput),
		})
		o.attempted, o.failed = plain.attempted(), plain.failed
		o.checkErr = firstErr(plain.wrong, plain.freezeErr)
		inserted += plain.inserted
	} else {
		w = driveCold(c, e.nproc, e.seed+2, e.seconds, 0, nil)
	}
	rss := rssAfterGCMB()
	o.attempted += w.attempted()
	o.failed += w.failed
	inserted += w.inserted
	o.checkErr = firstErr(o.checkErr, w.wrong, w.freezeErr)
	if o.checkErr == nil {
		o.checkErr = checkColdFinal(db, inserted)
	}
	amp, err := spaceAmp(db, dir, coldTables)
	if err != nil {
		return nil, err
	}

	// Latency and throughput cover the point-read and insert
	// transactions. The scans are exactly 1 % of the operations, so a tail
	// percentile over everything would sit on the boundary between the two
	// populations; they report scan_p50_ms.
	o.e2e, o.extra = endToEnd(setup, &w.window, o, amp, rss)
	o.extra = append(o.extra,
		metric{name: "scan_p50_ms", unit: "ms", value: w.scans.quantileMs(0.50, w.elapsed), samples: w.scans.count()})
	o.fingerprint["buffer_resident_bytes_end"] = db.Stats().BufferResidentBytes
	o.fingerprint["window_freezes"] = w.freezes
	o.fingerprint["window_frozen_rows"] = w.frozenRows
	if w.firstErr != nil {
		o.fingerprint["first_error"] = w.firstErr.Error()
	}
	return o, nil
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
