package main

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	phoebedb "phoebedb"

	"phoebedb/internal/adapter"
	"phoebedb/internal/rel"
	"phoebedb/internal/tpcc"
)

// tpcc: the standard TPC-C mix over the embedded API. It loads the write
// path: slot scheduling, MVCC/UNDO, hot-row tuple locks (Payment on
// warehouse and district), B-Tree lookups and WAL group commit with
// fsync. It bypasses wire, sql, frozen and vectorized scans.
const (
	tpccTerminalsPerWH = 10 // the specification's ratio
	tpccWarmupTxns     = 2000
	// tpccSetups is how many set-ups a run makes: a set-up is short, and
	// a lock-timeout deadlock in its warm-up adds 2 s to one of them.
	tpccSetups = 5
)

var tpccTables = []string{"warehouse", "district", "customer", "history", "new_order", "orders", "order_line", "item", "stock"}

// tpccWrite sorts a transaction type into the write class; the rest read.
func tpccWrite(t tpcc.TxnType) bool {
	return t == tpcc.TxnNewOrder || t == tpcc.TxnPayment || t == tpcc.TxnDelivery
}

// pickTxn draws from the standard mix (New-Order 45 %, Payment 43 %,
// Order-Status, Delivery and Stock-Level 4 % each).
func pickTxn(r *tpcc.RNG) tpcc.TxnType {
	x := r.Intn(100)
	switch {
	case x < 45:
		return tpcc.TxnNewOrder
	case x < 88:
		return tpcc.TxnPayment
	case x < 92:
		return tpcc.TxnOrderStatus
	case x < 96:
		return tpcc.TxnDelivery
	default:
		return tpcc.TxnStockLevel
	}
}

func runTxn(c tpcc.Client, r *tpcc.RNG, s tpcc.Scale, w int64, t tpcc.TxnType) error {
	switch t {
	case tpcc.TxnNewOrder:
		return tpcc.NewOrder(c, r, s, w)
	case tpcc.TxnPayment:
		return tpcc.Payment(c, r, s, w)
	case tpcc.TxnOrderStatus:
		return tpcc.OrderStatus(c, r, s, w)
	case tpcc.TxnDelivery:
		return tpcc.Delivery(c, r, s, w)
	default:
		return tpcc.StockLevel(c, r, s, w)
	}
}

// tpccWindow is one measured window's per-request record.
type tpccWindow struct {
	start     time.Time
	elapsed   time.Duration
	byType    [tpcc.NumTxnTypes]latencies
	committed [tpcc.NumTxnTypes]int64
	errs      []error
}

func (w *tpccWindow) attempted() int64 {
	var n int64
	for i := range w.byType {
		n += int64(w.byType[i].count())
	}
	return n
}

func (w *tpccWindow) failed() int64 {
	var n int64
	for i := range w.byType {
		n += int64(w.byType[i].with(failedReq))
	}
	return n
}

func (w *tpccWindow) committedTotal() int64 {
	var n int64
	for _, c := range w.committed {
		n += c
	}
	return n
}

// driveTPCC runs closed-loop terminals with affinity and no think time
// until dur elapses (or, with dur 0, until txns transactions are done).
// Each terminal's random stream derives from seed and its index.
func driveTPCC(db *phoebedb.DB, s tpcc.Scale, terminals int, seed int64, dur time.Duration, txns int, tr *tracer) *tpccWindow {
	var (
		mu  sync.Mutex
		out tpccWindow
		wg  sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(dur)
	perTerm := (txns + terminals - 1) / terminals
	for term := 0; term < terminals; term++ {
		wg.Add(1)
		go func(term int) {
			defer wg.Done()
			var local tpccWindow
			sb := tr.buf()
			r := tpcc.NewRNG(seed*1_000_003 + int64(term)*7919)
			homeW := int64(term%s.Warehouses) + 1
			for i := 0; dur > 0 || i < perTerm; i++ {
				if dur > 0 && time.Now().After(deadline) {
					break
				}
				tt := pickTxn(r)
				err, el := execTx(db, sb, func(c tpcc.Client) error { return runTxn(c, r, s, homeW, tt) })
				switch {
				case err == nil:
					local.committed[tt]++
					local.byType[tt].add(el, committed)
				case errors.Is(err, tpcc.ErrRollback):
					// The specification's 1 % New-Order user rollback: an
					// intended outcome, not a failure, and not a commit.
					local.byType[tt].add(el, rolledBack)
				default:
					local.byType[tt].add(el, failedReq)
					local.errs = append(local.errs, err)
				}
			}
			mu.Lock()
			defer mu.Unlock()
			for i := range out.byType {
				out.byType[i].merge(&local.byType[i])
				out.committed[i] += local.committed[i]
			}
			out.errs = append(out.errs, local.errs...)
		}(term)
	}
	wg.Wait()
	out.start, out.elapsed = start, time.Since(start)
	return &out
}

// execTx runs fn as one transaction through DB.Execute and returns
// its error and latency. With a span buffer it records the request's
// root span, the scheduler queue wait, the closure, each Tx call, and
// the commit.
func execTx(db *phoebedb.DB, sb *spanBuf, fn func(tpcc.Client) error) (error, time.Duration) {
	t0 := time.Now()
	if sb == nil {
		err := db.Execute(func(tx *phoebedb.Tx) error { return fn(tx) })
		return err, time.Since(t0)
	}
	req, body := sb.newID(), sb.newID()
	var bodyStart, bodyEnd time.Time
	err := db.Execute(func(tx *phoebedb.Tx) error {
		bodyStart = time.Now()
		err := fn(tracedTx{tx: tx, sb: sb, parent: body, req: req})
		bodyEnd = time.Now()
		return err
	})
	t1 := time.Now()
	sb.record(spanReq, req, 0, req, t0, t1)
	if !bodyStart.IsZero() {
		sb.record(spanQueue, 0, req, req, t0, bodyStart)
		sb.record(spanBody, body, req, req, bodyStart, bodyEnd)
		sb.record(spanCommit, 0, req, req, bodyEnd, t1)
	}
	return err, t1.Sub(t0)
}

// tracedTx wraps a transaction, recording a core.<op> span per call.
type tracedTx struct {
	tx     *phoebedb.Tx
	sb     *spanBuf
	parent uint64
	req    uint64
}

func (t tracedTx) span(op string, start time.Time) {
	t.sb.record("core."+op, 0, t.parent, t.req, start, time.Now())
}

func (t tracedTx) Insert(table string, row rel.Row) (rel.RowID, error) {
	defer t.span("Insert", time.Now())
	return t.tx.Insert(table, row)
}

func (t tracedTx) Get(table string, rid rel.RowID) (rel.Row, bool, error) {
	defer t.span("Get", time.Now())
	return t.tx.Get(table, rid)
}

func (t tracedTx) GetByIndex(table, index string, vals ...rel.Value) (rel.RowID, rel.Row, bool, error) {
	defer t.span("GetByIndex", time.Now())
	return t.tx.GetByIndex(table, index, vals...)
}

func (t tracedTx) ScanIndex(table, index string, vals []rel.Value, fn func(rid rel.RowID, row rel.Row) bool) error {
	defer t.span("ScanIndex", time.Now())
	return t.tx.ScanIndex(table, index, vals, fn)
}

func (t tracedTx) Update(table string, rid rel.RowID, set map[string]rel.Value) error {
	defer t.span("Modify", time.Now())
	return t.tx.Update(table, rid, set)
}

func (t tracedTx) Modify(table string, rid rel.RowID, fn func(cur rel.Row) (map[string]rel.Value, error)) (rel.Row, error) {
	defer t.span("Modify", time.Now())
	return t.tx.Modify(table, rid, fn)
}

func (t tracedTx) Delete(table string, rid rel.RowID) error {
	defer t.span("Delete", time.Now())
	return t.tx.Delete(table, rid)
}

// tpccDB is a loaded TPC-C database.
type tpccDB struct {
	db       *phoebedb.DB
	opts     phoebedb.Options
	warmFail int64
}

func (t *tpccDB) close() { t.db.Close() }

// tpccSetup opens a database in dir, loads the scale from the seed and
// warms it with a count-bounded burst of the mix.
func tpccSetup(e *env, dir string, s tpcc.Scale, terminals int) (*tpccDB, error) {
	opts := baseOptions(dir, e.nproc)
	db, err := openDB(opts)
	if err != nil {
		return nil, err
	}
	b := adapter.Phoebe{DB: db}
	if err := tpcc.Declare(b); err != nil {
		db.Close()
		return nil, err
	}
	if err := tpcc.LoadSeeded(b, s, 0, e.seed); err != nil {
		db.Close()
		return nil, err
	}
	// Warm-up transactions that fail (the lock-timeout deadlocks) are
	// counted in the fingerprint, not hidden and not fatal to set-up.
	w := driveTPCC(db, s, terminals, e.seed+1, 0, tpccWarmupTxns, nil)
	return &tpccDB{db: db, opts: opts, warmFail: w.failed()}, nil
}

func runTPCC(e *env) (*outcome, error) {
	s := tpcc.Medium(e.nproc)
	terminals := tpccTerminalsPerWH * s.Warehouses
	var warmFail int64
	t, dir, setup, err := setUpRepeatedly(e, tpccSetups, func(dir string) (*tpccDB, error) {
		t, err := tpccSetup(e, dir, s, terminals)
		if err == nil {
			warmFail += t.warmFail
		}
		return t, err
	})
	if err != nil {
		return nil, err
	}
	defer t.close()
	db := t.db
	// Every New-Order adds rows, so the resident set at the end of a timed
	// window grows with the work the window did (a faster engine would
	// read as a larger one), and it spread by about 0.2 across seeds. The
	// set-up ends with a count-bounded warm-up of the same mix, so its
	// resident set is the loaded database after a fixed amount of work.
	rss := rssAfterGCMB()

	o := &outcome{fingerprint: configFingerprint(t.opts)}
	o.fingerprint["tpcc_warehouses"] = s.Warehouses
	o.fingerprint["tpcc_scale"] = s
	o.fingerprint["tpcc_terminals"] = terminals
	o.fingerprint["tpcc_warmup_txns"] = tpccWarmupTxns
	o.fingerprint["setups"] = tpccSetups
	o.fingerprint["warmup_failed_txns"] = warmFail

	measureSeed := e.seed + 2
	var w *tpccWindow
	if e.trace {
		half := e.seconds / 2
		plain := driveTPCC(db, s, terminals, measureSeed, half, 0, nil)
		tr := newTracer()
		before := takeSnapshot(db)
		w = driveTPCC(db, s, terminals, measureSeed+1, half, 0, tr)
		after := takeSnapshot(db)
		spans := tr.all()
		if err := writeSpans(filepath.Join(filepath.Dir(e.dir), "spans-tpcc.tsv.gz"), spans); err != nil {
			return nil, err
		}
		plainTput := float64(plain.committedTotal()) / plain.elapsed.Seconds()
		tracedTput := float64(w.committedTotal()) / w.elapsed.Seconds()
		o.layers = layerMetrics(layerInput{
			before: before, after: after, spans: summarize(spans),
			ops: float64(w.attempted()), lockTimeouts: countLockTimeouts(w.errs),
			overhead: 1 - ratio(tracedTput, plainTput),
		})
		o.attempted, o.failed = plain.attempted()+w.attempted(), plain.failed()+w.failed()
	} else {
		w = driveTPCC(db, s, terminals, measureSeed, e.seconds, 0, nil)
		o.attempted, o.failed = w.attempted(), w.failed()
	}

	if err := tpcc.CheckConsistency(adapter.Phoebe{DB: db}, s); err != nil {
		o.checkErr = fmt.Errorf("TPC-C consistency: %w", err)
	}
	amp, err := spaceAmp(db, dir, tpccTables)
	if err != nil {
		return nil, err
	}

	ew := &window{start: w.start, elapsed: w.elapsed}
	for t := 0; t < tpcc.NumTxnTypes; t++ {
		if tpccWrite(tpcc.TxnType(t)) {
			ew.writes.merge(&w.byType[t])
		} else {
			ew.reads.merge(&w.byType[t])
		}
	}
	o.e2e, o.extra = endToEnd(setup, ew, o, amp, rss)
	// The TPC-C figures, printed beside the cross-workload set.
	no, pay := &w.byType[tpcc.TxnNewOrder], &w.byType[tpcc.TxnPayment]
	o.extra = append(o.extra,
		metric{name: "tpmC", unit: "1/min", value: float64(w.committed[tpcc.TxnNewOrder]) / w.elapsed.Minutes()},
		metric{name: "neworder_p99_ms", unit: "ms", value: no.tailMs(0.99, w.elapsed), samples: no.count()},
		metric{name: "payment_p99_ms", unit: "ms", value: pay.tailMs(0.99, w.elapsed), samples: pay.count()},
	)
	if len(w.errs) > 0 {
		o.fingerprint["first_error"] = w.errs[0].Error()
	}
	return o, nil
}
