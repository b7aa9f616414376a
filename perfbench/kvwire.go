package main

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	phoebedb "phoebedb"

	"phoebedb/client"
	"phoebedb/internal/wire"
)

// kv-wire: YCSB-B-style point traffic (95 % SELECT by id, 5 % UPDATE by
// id, Zipfian keys) sent over the wire protocol on loopback as an open
// loop at a fixed offered rate. It exercises wire (codec, epoll mux,
// admission), sql (parse and plan cache) and the B-Tree point read with
// the MVCC fast path; it does little WAL work and has almost no lock
// contention.
const (
	kvRows       = 100_000
	kvRate       = 8_000 // offered statements per second, well below saturation
	kvUpdatePct  = 5
	kvZipfS      = 1.1    // math/rand Zipf exponent over the key ranks
	kvWarmupReqs = 20_000 // closed-loop pipelined statements in set-up
	kvWarmDepth  = 64
	kvSetups     = 5                // set-ups per run; setup_s is their median
	kvLateLimit  = time.Millisecond // a send later than this counts as late
	kvPayloadLen = 32
)

// kvA and kvB are the immutable columns of row id; SELECTs must return
// exactly these.
func kvA(id int64) int64 { return id*7919%1_000_003 + 1 }
func kvB(id int64) string {
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789"
	b := make([]byte, kvPayloadLen)
	x := uint64(id)*0x9E3779B97F4A7C15 + 1
	for i := range b {
		x ^= x >> 29
		x *= 0xBF58476D1CE4E5B9
		b[i] = alphabet[x%uint64(len(alphabet))]
	}
	return string(b)
}

// kvReq is one scheduled statement.
type kvReq struct {
	update bool
	id     int64
	val    int64 // the value an UPDATE writes (unique per request)
}

func (r kvReq) sql() string {
	if r.update {
		return "UPDATE kv SET h = " + strconv.FormatInt(r.val, 10) + " WHERE id = " + strconv.FormatInt(r.id, 10)
	}
	return "SELECT a, b FROM kv WHERE id = " + strconv.FormatInt(r.id, 10)
}

// kvSchedule draws n requests from the seed. Keys follow a Zipf law over
// ranks, scattered over the id space so hot keys share no pages.
func kvSchedule(seed int64, n int, valBase int64) []kvReq {
	r := rand.New(rand.NewSource(seed))
	z := rand.NewZipf(r, kvZipfS, 1, kvRows-1)
	out := make([]kvReq, n)
	for i := range out {
		rank := int64(z.Uint64())
		out[i] = kvReq{
			update: r.Intn(100) < kvUpdatePct,
			id:     rank*104_729%kvRows + 1, // 104729 is prime, so this permutes ids
			val:    valBase + int64(i),
		}
	}
	return out
}

// kvServer is a database behind a wire server on a loopback port.
type kvServer struct {
	db     *phoebedb.DB
	opts   phoebedb.Options
	srv    *wire.Server
	ln     net.Listener
	served chan error
}

func (k *kvServer) close() {
	k.srv.Shutdown(k.ln)
	<-k.served
	k.db.Close()
}

func kvSetup(e *env, dir string) (*kvServer, error) {
	opts := baseOptions(dir, e.nproc)
	db, err := openDB(opts)
	if err != nil {
		return nil, err
	}
	for _, ddl := range []string{
		"CREATE TABLE kv (id INT, a INT, b STRING, h INT)",
		"CREATE UNIQUE INDEX kv_pk ON kv (id)",
	} {
		if _, err := db.ExecSQL(ddl); err != nil {
			db.Close()
			return nil, err
		}
	}
	const batch = 1000
	for lo := int64(1); lo <= kvRows; lo += batch {
		lo := lo
		err := db.Execute(func(tx *phoebedb.Tx) error {
			for id := lo; id < lo+batch && id <= kvRows; id++ {
				if _, err := tx.Insert("kv", phoebedb.Row{
					phoebedb.Int(id), phoebedb.Int(kvA(id)), phoebedb.Str(kvB(id)), phoebedb.Int(0),
				}); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			db.Close()
			return nil, fmt.Errorf("load: %w", err)
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	k := &kvServer{db: db, opts: opts, srv: wire.NewServer(db), ln: ln, served: make(chan error, 1)}
	go func() { k.served <- k.srv.Serve(ln) }()

	// Warm-up: closed-loop pipelined SELECTs from nproc connections.
	warm := kvSchedule(e.seed+1, kvWarmupReqs, 0)
	errs := make(chan error, e.nproc)
	for c := 0; c < e.nproc; c++ {
		go func(c int) { errs <- kvWarm(ln.Addr().String(), warm, c, e.nproc) }(c)
	}
	for c := 0; c < e.nproc; c++ {
		if werr := <-errs; werr != nil && err == nil {
			err = werr
		}
	}
	if err != nil {
		k.close()
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return k, nil
}

// kvWarm sends every conns-th SELECT of reqs, starting at offset, in
// pipelined batches, checking each answer.
func kvWarm(addr string, reqs []kvReq, offset, conns int) error {
	c, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer c.Close()
	var pending []kvReq
	flush := func() error {
		if err := c.Flush(); err != nil {
			return err
		}
		for _, r := range pending {
			res, err := c.Recv()
			if err != nil {
				return err
			}
			if len(res.Rows) != 1 || res.Rows[0][0] != strconv.FormatInt(kvA(r.id), 10) || res.Rows[0][1] != kvB(r.id) {
				return fmt.Errorf("SELECT id %d returned %v", r.id, res.Rows)
			}
		}
		pending = pending[:0]
		return nil
	}
	for i := offset; i < len(reqs); i += conns {
		r := reqs[i]
		r.update = false
		if err := c.Send(r.sql()); err != nil {
			return err
		}
		pending = append(pending, r)
		if len(pending) == kvWarmDepth {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// kvWindow is the record of one open-loop window.
type kvWindow struct {
	window
	late    []time.Duration
	errs    []error // failed or refused requests
	wrong   error   // first incorrect answer
	written map[int64][]int64
}

// driveKV offers reqs at kvRate from conns connections: request i is due
// at start + i/kvRate on connection i mod conns. Latency runs from the
// due time, so a stall charges its wait to every request queued behind
// it. Each connection has a sender and a receiver goroutine.
func driveKV(addr string, reqs []kvReq, conns int, tr *tracer) (*kvWindow, error) {
	netConns := make([]*wireConn, conns)
	for c := range netConns {
		nc, err := dialWire(addr)
		if err != nil {
			for _, p := range netConns[:c] {
				p.Close()
			}
			return nil, err
		}
		netConns[c] = nc
	}
	out := &kvWindow{written: map[int64][]int64{}}
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now().Add(time.Millisecond)
	interval := time.Second / kvRate
	for c := 0; c < conns; c++ {
		var mine []int
		for i := c; i < len(reqs); i += conns {
			mine = append(mine, i)
		}
		due := func(k int) time.Time { return start.Add(time.Duration(mine[k]) * interval) }
		sent := make([]atomic.Int64, len(mine)) // UnixNano when flushed
		nc := netConns[c]
		wg.Add(2)
		go func() {
			defer wg.Done()
			kvSend(nc, reqs, mine, due, sent)
		}()
		go func() {
			defer wg.Done()
			defer nc.Close()
			w := kvRecv(nc, reqs, mine, due, sent, tr.buf())
			mu.Lock()
			defer mu.Unlock()
			out.reads.merge(&w.reads)
			out.writes.merge(&w.writes)
			out.late = append(out.late, w.late...)
			out.errs = append(out.errs, w.errs...)
			if out.wrong == nil {
				out.wrong = w.wrong
			}
			for id, vals := range w.written {
				out.written[id] = append(out.written[id], vals...)
			}
		}()
	}
	wg.Wait()
	out.start, out.elapsed = start, time.Since(start)
	return out, nil
}

// wireConn is a raw protocol connection: the open loop needs a sender and
// a receiver on one connection at once, which client.Conn (one goroutine
// per connection) does not allow.
type wireConn struct {
	net.Conn
	r *bufio.Reader // response frames, read by the receiver alone
}

func dialWire(addr string) (*wireConn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	c := &wireConn{Conn: nc, r: bufio.NewReaderSize(nc, 64<<10)}
	if _, err := nc.Write(wire.AppendHello(nil)); err != nil {
		nc.Close()
		return nil, err
	}
	f, err := readFrame(c.r)
	if err == nil && f.Type != wire.FrameOK {
		err = fmt.Errorf("hello answered with frame %q", f.Type)
	}
	if err != nil {
		nc.Close()
		return nil, fmt.Errorf("hello: %w", err)
	}
	return c, nil
}

func readFrame(r *bufio.Reader) (wire.Frame, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return wire.Frame{}, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n < 4 || n > wire.MaxFrame {
		return wire.Frame{}, fmt.Errorf("bad frame length %d", n)
	}
	buf := make([]byte, 4+n)
	copy(buf, hdr[:])
	if _, err := io.ReadFull(r, buf[4:]); err != nil {
		return wire.Frame{}, err
	}
	f, _, err := wire.ParseFrame(buf)
	return f, err
}

// kvSend writes each request at its due time, flushing whenever it has
// caught up with the schedule. A request's send time is taken as it
// enters the buffer, before any flush can carry it to the server.
func kvSend(nc net.Conn, reqs []kvReq, mine []int, due func(int) time.Time, sent []atomic.Int64) {
	w := bufio.NewWriterSize(nc, 64<<10)
	var frame []byte
	for k := range mine {
		if d := time.Until(due(k)); d > 0 {
			if w.Flush() != nil {
				return
			}
			time.Sleep(d)
		}
		frame = wire.AppendQuery(frame[:0], reqs[mine[k]].sql())
		sent[k].Store(time.Now().UnixNano())
		if _, err := w.Write(frame); err != nil {
			return
		}
	}
	w.Flush() // a failed flush shows as failed responses in kvRecv
}

// kvRecv reads one response per request, in order, timing each from its
// due time and checking its answer.
func kvRecv(nc *wireConn, reqs []kvReq, mine []int, due func(int) time.Time, sent []atomic.Int64, sb *spanBuf) *kvWindow {
	out := &kvWindow{written: map[int64][]int64{}}
	for k, i := range mine {
		req := reqs[i]
		f, err := readFrame(nc.r)
		now := time.Now()
		if err != nil {
			// The connection is gone: every remaining request failed.
			for range mine[k:] {
				out.errs = append(out.errs, err)
				out.reads.add(0, failedReq)
			}
			return out
		}
		dueAt := due(k)
		sentAt := time.Unix(0, sent[k].Load())
		out.late = append(out.late, sentAt.Sub(dueAt))
		if sb != nil {
			id := sb.record(spanReq, 0, 0, 0, dueAt, now)
			sb.record(spanRTT, 0, id, id, sentAt, now)
		}
		ok, wrong := checkKV(req, f)
		if wrong != nil && out.wrong == nil {
			out.wrong = wrong
		}
		st := committed
		if !ok {
			st = failedReq
			out.errs = append(out.errs, fmt.Errorf("%s: %w", req.sql(), frameErr(f)))
		}
		if req.update {
			out.writes.add(now.Sub(dueAt), st)
			if ok {
				out.written[req.id] = append(out.written[req.id], req.val)
			}
		} else {
			out.reads.add(now.Sub(dueAt), st)
		}
	}
	return out
}

// checkKV classifies a response: ok is false for an error frame (failed
// or refused); wrong is set when the answer itself is incorrect.
func checkKV(req kvReq, f wire.Frame) (ok bool, wrong error) {
	switch f.Type {
	case wire.FrameError:
		return false, nil
	case wire.FrameOK:
		n, err := wire.DecodeOK(f.Body)
		if !req.update || err != nil || n != 1 {
			return true, fmt.Errorf("%s: OK frame affected %d (err %v)", req.sql(), n, err)
		}
		return true, nil
	case wire.FrameRows:
		_, rows, err := wire.DecodeRows(f.Body)
		if req.update || err != nil || len(rows) != 1 || len(rows[0]) != 2 ||
			rows[0][0].I != kvA(req.id) || rows[0][1].S != kvB(req.id) {
			return true, fmt.Errorf("%s: returned %v (err %v)", req.sql(), rows, err)
		}
		return true, nil
	}
	return true, fmt.Errorf("%s: unexpected frame %q", req.sql(), f.Type)
}

func frameErr(f wire.Frame) error {
	code, msg, err := wire.DecodeError(f.Body)
	if err != nil {
		return err
	}
	return errors.New(code + ": " + msg)
}

// checkKVFinal verifies that every updated row holds one of the values
// written to it, and that the immutable columns are intact.
func checkKVFinal(db *phoebedb.DB, written map[int64][]int64) error {
	return db.Execute(func(tx *phoebedb.Tx) error {
		for id, vals := range written {
			_, row, found, err := tx.GetByIndex("kv", "kv_pk", phoebedb.Int(id))
			if err != nil {
				return err
			}
			if !found || row[1].I != kvA(id) || row[2].S != kvB(id) {
				return fmt.Errorf("row %d: %v", id, row)
			}
			match := false
			for _, v := range vals {
				match = match || row[3].I == v
			}
			if !match {
				return fmt.Errorf("row %d holds h=%d, not a value written to it", id, row[3].I)
			}
		}
		return nil
	})
}

func runKVWire(e *env) (*outcome, error) {
	k, dir, setup, err := setUpRepeatedly(e, kvSetups, func(dir string) (*kvServer, error) { return kvSetup(e, dir) })
	if err != nil {
		return nil, err
	}
	defer k.close()
	addr := k.ln.Addr().String()

	o := &outcome{fingerprint: configFingerprint(k.opts)}
	o.fingerprint["kv_rows"] = kvRows
	o.fingerprint["kv_offered_rate"] = kvRate
	o.fingerprint["kv_update_pct"] = kvUpdatePct
	o.fingerprint["kv_zipf_s"] = kvZipfS
	o.fingerprint["kv_connections"] = e.nproc
	o.fingerprint["setups"] = kvSetups

	n := int(e.seconds.Seconds() * kvRate)
	var w *kvWindow
	if e.trace {
		half := n / 2
		plain, err := driveKV(addr, kvSchedule(e.seed+2, half, 1), e.nproc, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		before := takeSnapshot(k.db)
		w, err = driveKV(addr, kvSchedule(e.seed+3, half, 1+int64(half)), e.nproc, tr)
		if err != nil {
			return nil, err
		}
		after := takeSnapshot(k.db)
		spans := tr.all()
		if err := writeSpans(filepath.Join(filepath.Dir(e.dir), "spans-kv-wire.tsv.gz"), spans); err != nil {
			return nil, err
		}
		// Offered load is fixed, so tracing cost shows as latency: the
		// overhead is the traced window's relative median latency increase.
		o.layers = layerMetrics(layerInput{
			before: before, after: after, spans: summarize(spans),
			ops: float64(len(w.late)), lockTimeouts: countLockTimeouts(w.errs),
			late: w.late, lateLimit: kvLateLimit,
			overhead: ratio(w.reads.quantileMs(0.5, w.elapsed), plain.reads.quantileMs(0.5, plain.elapsed)) - 1,
		})
		o.attempted = int64(plain.reads.count() + plain.writes.count() + w.reads.count() + w.writes.count())
		o.failed = int64(len(plain.errs) + len(w.errs))
		o.checkErr = plain.wrong
		for id, vals := range plain.written {
			w.written[id] = append(w.written[id], vals...)
		}
	} else {
		w, err = driveKV(addr, kvSchedule(e.seed+2, n, 1), e.nproc, nil)
		if err != nil {
			return nil, err
		}
		o.attempted = int64(w.reads.count() + w.writes.count())
		o.failed = int64(len(w.errs))
	}
	rss := rssAfterGCMB()
	o.checkErr = firstErr(o.checkErr, w.wrong)
	if o.checkErr == nil {
		o.checkErr = checkKVFinal(k.db, w.written)
	}
	amp, err := spaceAmp(k.db, dir, []string{"kv"})
	if err != nil {
		return nil, err
	}

	o.e2e, o.extra = endToEnd(setup, &w.window, o, amp, rss)
	o.extra = append(o.extra, metric{name: "late_frac", unit: "ratio", value: lateFrac(w.late, kvLateLimit)})
	if len(w.errs) > 0 {
		o.fingerprint["first_error"] = w.errs[0].Error()
	}
	return o, nil
}
