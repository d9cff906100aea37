package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lambdadb/internal/cluster"
	"lambdadb/internal/engine"
	"lambdadb/internal/plancache"
	"lambdadb/internal/repl"
	"lambdadb/internal/server"
	"lambdadb/internal/server/client"
	"lambdadb/internal/telemetry"
	"lambdadb/internal/types"
)

// loadChunk is the rows per commit while loading the kv table.
const loadChunk = 1 << 16

// wireEnv is one set-up of a wire workload: a durable primary served on
// loopback and, for router_mix, a semi-synchronous replica and a router in
// front of both. Clients dial target.
type wireEnv struct {
	target  string
	primary *engine.DB
	// reader is the engine that serves point reads: the replica behind a
	// router, else the primary.
	reader      *engine.DB
	replica     *engine.DB
	primaryAddr string
	replicaAddr string
	routerStats *telemetry.Metrics
	rows        int
	closers     []func()
}

// close tears the set-up down in reverse order and removes its data.
func (e *wireEnv) close() {
	for i := len(e.closers) - 1; i >= 0; i-- {
		e.closers[i]()
	}
	e.closers = nil
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// setupWire builds a fresh environment in its own directory under the
// checkout's build area.
func setupWire(c config, viaRouter bool) (env *wireEnv, err error) {
	dir, err := os.MkdirTemp(c.dataDir(), "env-")
	if err != nil {
		return nil, err
	}
	e := &wireEnv{rows: c.size.rows}
	e.closers = append(e.closers, func() { os.RemoveAll(dir) })
	defer func() {
		if err != nil {
			e.close()
		}
	}()

	e.primary, err = openDB(e, filepath.Join(dir, "primary"))
	if err != nil {
		return nil, err
	}
	e.reader = e.primary
	var handler server.ReplicationHandler
	if viaRouter {
		node, err := cluster.NewNode(e.primary, "", cluster.NodeConfig{
			Primary: repl.PrimaryConfig{SyncReplicas: 1, Logger: quiet}, Logger: quiet})
		if err != nil {
			return nil, fmt.Errorf("primary node: %w", err)
		}
		e.closers = append(e.closers, node.Close)
		handler = node
	}
	if e.primaryAddr, err = serve(e, e.primary, handler); err != nil {
		return nil, err
	}
	e.target = e.primaryAddr

	if viaRouter {
		// The replica subscribes before any data exists, so every commit of
		// the load is acknowledged semi-synchronously, as in service.
		e.replica, err = openDB(e, filepath.Join(dir, "replica"), engine.WithReadReplica(e.primaryAddr))
		if err != nil {
			return nil, err
		}
		node, err := cluster.NewNode(e.replica, e.primaryAddr, cluster.NodeConfig{
			Replica: repl.ReplicaConfig{Logger: quiet}, Logger: quiet})
		if err != nil {
			return nil, fmt.Errorf("replica node: %w", err)
		}
		e.closers = append(e.closers, node.Close)
		if e.replicaAddr, err = serve(e, e.replica, node); err != nil {
			return nil, err
		}
		e.reader = e.replica
	}

	if err := loadKV(e.primary, c.seed, c.size.rows); err != nil {
		return nil, err
	}
	if viaRouter {
		if err := e.replica.WaitForClock(context.Background(), e.primary.Store().Snapshot()); err != nil {
			return nil, fmt.Errorf("replica catch-up: %w", err)
		}
		// Statistics are not replicated; the replica plans reads with its own.
		if _, err := e.replica.Exec("ANALYZE kv"); err != nil {
			return nil, fmt.Errorf("analyze on replica: %w", err)
		}
		if err := startRouter(e); err != nil {
			return nil, err
		}
	}
	return e, nil
}

func openDB(e *wireEnv, dir string, opts ...engine.Option) (*engine.DB, error) {
	db, err := engine.OpenDir(dir, append(opts, engine.WithLogger(quiet))...)
	if err != nil {
		return nil, fmt.Errorf("open %s: %w", filepath.Base(dir), err)
	}
	e.closers = append(e.closers, func() { db.Close() })
	return db, nil
}

// serve starts a wire server for db on a loopback port and returns its
// address.
func serve(e *wireEnv, db *engine.DB, handler server.ReplicationHandler) (string, error) {
	srv := server.New(db, server.Config{Addr: "127.0.0.1:0", ReplHandler: handler, Logger: quiet})
	if err := srv.Listen(); err != nil {
		return "", err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		srv.Serve() //nolint:errcheck // returns once Shutdown closes the listener
	}()
	e.closers = append(e.closers, func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		srv.Shutdown(ctx) //nolint:errcheck // teardown: connections are ours and idle
		<-done
	})
	return srv.Addr().String(), nil
}

// loadKV creates kv(k, v) with keys 0..rows-1 and the generator's values,
// indexes k and analyzes the table.
func loadKV(db *engine.DB, seed int64, rows int) error {
	if _, err := db.Exec("CREATE TABLE kv (k BIGINT, v BIGINT)"); err != nil {
		return err
	}
	store := db.Store()
	tbl, err := store.Table("kv")
	if err != nil {
		return err
	}
	for lo := 0; lo < rows; lo += loadChunk {
		b := types.NewBatch(tbl.Schema())
		for k := int64(lo); k < int64(min(lo+loadChunk, rows)); k++ {
			b.Cols[0].AppendInt(k)
			b.Cols[1].AppendInt(valueOf(seed, k))
		}
		tx := store.Begin()
		if err := tx.Insert(tbl, b); err != nil {
			tx.Rollback()
			return err
		}
		if err := tx.Commit(); err != nil {
			return fmt.Errorf("load commit: %w", err)
		}
	}
	_, err = db.Exec("CREATE INDEX kv_k ON kv (k); ANALYZE kv")
	return err
}

// startRouter puts a router in front of both nodes and waits until it has
// found the primary and sees both nodes healthy.
func startRouter(e *wireEnv) error {
	e.routerStats = &telemetry.Metrics{}
	rt, err := cluster.NewRouter(cluster.RouterConfig{Listen: "127.0.0.1:0",
		Nodes: []string{e.primaryAddr, e.replicaAddr}, Logger: quiet, Metrics: e.routerStats})
	if err != nil {
		return err
	}
	if err := rt.Listen(); err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		rt.Serve() //nolint:errcheck // returns once Close stops the listener
	}()
	e.closers = append(e.closers, func() { rt.Close(); <-done })
	e.target = rt.Addr()
	deadline := time.Now().Add(30 * time.Second)
	for e.routerStats.RouterBackendsHealthy.Load() < 2 {
		if time.Now().After(deadline) {
			return fmt.Errorf("router: nodes not healthy after 30s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	conn, err := client.Dial(e.target)
	if err != nil {
		return err
	}
	defer conn.Close()
	// A write waits until the router has elected a primary.
	_, err = conn.Exec("CREATE TABLE router_ready (x BIGINT)")
	return err
}

// driveResult is what one closed-loop pass over an op stream produced.
type driveResult struct {
	ops       []op
	startNs   []int64 // per op, in stream order, since the pass began
	endNs     []int64
	acked     int
	attempted int
	failed    int
	elapsed   time.Duration
	cpu       time.Duration // CPU time of the whole process during the pass
}

// windowRate is the median throughput over throughputWindows consecutive
// slices of the op stream: a closed loop's overall throughput is the
// inverse of its mean latency, which a few stalls dominate.
func (r *driveResult) windowRate() float64 {
	n := len(r.ops)
	var rates []float64
	for w := 0; w < throughputWindows; w++ {
		lo, hi := w*n/throughputWindows, (w+1)*n/throughputWindows
		if hi <= lo {
			continue
		}
		first, last := slices.Min(r.startNs[lo:hi]), slices.Max(r.endNs[lo:hi])
		rates = append(rates, float64(hi-lo)/(float64(last-first)/1e9))
	}
	return median(rates)
}

// throughputWindows is how many slices windowRate splits a pass into.
const throughputWindows = 100

// latencies returns the latencies in microseconds of the reads (write
// false) or inserts among ops[lo:hi].
func (r *driveResult) latencies(write bool, lo, hi int) []float64 {
	var out []float64
	for i := lo; i < hi; i++ {
		if r.ops[i].write == write {
			out = append(out, float64(r.endNs[i]-r.startNs[i])/1e3)
		}
	}
	return out
}

// joinEvery is how often a traced client joins a read with the engines'
// query logs (inserts are always joined): the log is a bounded ring, so it
// is read right after the op.
const joinEvery = 16

// drive runs ops through c.clients connections in a closed loop: each
// client sends its next op only after the previous reply. Ops are taken in
// stream order from a shared cursor. Every reply is checked.
func drive(c config, e *wireEnv, ops []op, tr *tracer) (*driveResult, error) {
	conns := make([]*client.Conn, c.clients)
	for i := range conns {
		conn, err := client.Dial(e.target)
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		conns[i] = conn
	}
	res := &driveResult{ops: ops, startNs: make([]int64, len(ops)), endNs: make([]int64, len(ops))}
	type tally struct{ acked, failed int }
	tallies := make([]tally, len(conns))
	var next atomic.Int64
	var wg sync.WaitGroup
	// Start every pass from a collected heap, so garbage left by set-up or
	// an earlier pass does not decide when the pass's collections run.
	runtime.GC()
	cpu0 := processCPU()
	start := time.Now()
	for i, conn := range conns {
		wg.Add(1)
		go func(t *tally, conn *client.Conn) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(len(ops)) {
					return
				}
				o := ops[i]
				ctx := context.Background()
				if tr != nil {
					ctx = telemetry.WithTraceID(ctx, fmt.Sprintf("%016x", i+1))
				}
				t0 := time.Now()
				r, err := conn.ExecContext(ctx, o.sql(c.seed))
				t1 := time.Now()
				res.startNs[i], res.endNs[i] = t0.Sub(start).Nanoseconds(), t1.Sub(start).Nanoseconds()
				if err == nil {
					err = checkReply(c.seed, o, r)
				}
				switch {
				case err != nil:
					t.failed++
					logf("op %d: %v", i, err)
				case o.write:
					t.acked++
				}
				if tr != nil {
					name := "client.read"
					if o.write {
						name = "client.write"
					}
					root := tr.add(name, 0, i, t0, t1)
					if o.write || i%joinEvery == 0 {
						e.joinLogs(tr, root, i)
					}
				}
			}
		}(&tallies[i], conn)
	}
	wg.Wait()
	res.elapsed = time.Since(start)
	res.cpu = processCPU() - cpu0
	res.attempted = len(ops)
	for _, t := range tallies {
		res.acked += t.acked
		res.failed += t.failed
	}
	return res, nil
}

// joinLogs adds the engine-side statement intervals of op i, found by its
// trace ID in the query logs, as children of the op's client span.
func (e *wireEnv) joinLogs(tr *tracer, root int, i int64) {
	id := fmt.Sprintf("%016x", i+1)
	for _, db := range []*engine.DB{e.primary, e.replica} {
		if db == nil {
			continue
		}
		for _, q := range db.QueryLog() {
			if q.TraceID == id {
				tr.add("engine.stmt", root, i, q.Started, q.Started.Add(q.Duration))
			}
		}
	}
}

func checkReply(seed int64, o op, r *client.Result) error {
	if o.write {
		if r.Affected != 1 {
			return fmt.Errorf("insert of key %d affected %d rows", o.key, r.Affected)
		}
		return nil
	}
	if len(r.Rows) != 1 || len(r.Rows[0]) != 1 {
		return fmt.Errorf("read of key %d returned %d rows", o.key, len(r.Rows))
	}
	if got, want := r.Rows[0][0].AsInt(), valueOf(seed, o.key); got != want {
		return fmt.Errorf("read of key %d = %d, want %d", o.key, got, want)
	}
	return nil
}

// checkCount verifies that COUNT(*) equals the loaded rows plus the acked
// inserts; behind a router it checks primary and replica, the replica
// after WAIT FOR CLOCK at the primary's commit clock.
func (e *wireEnv) checkCount(acked int) error {
	want := int64(e.rows + acked)
	if err := countOn(e.primaryAddr, "SELECT COUNT(*) FROM kv", want); err != nil {
		return fmt.Errorf("primary: %w", err)
	}
	if e.replica == nil {
		return nil
	}
	q := fmt.Sprintf("WAIT FOR CLOCK %d; SELECT COUNT(*) FROM kv", e.primary.Store().Snapshot())
	if err := countOn(e.replicaAddr, q, want); err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	return nil
}

func countOn(addr, q string, want int64) error {
	conn, err := client.Dial(addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	r, err := conn.Exec(q)
	if err != nil {
		return err
	}
	if len(r.Rows) != 1 || r.Rows[0][0].AsInt() != want {
		return fmt.Errorf("COUNT(*) = %v, want %d", r.Rows, want)
	}
	return nil
}

func wireWorkload(c config, rep *report, viaRouter bool) error {
	nOps := c.size.opsPerSecond(viaRouter) * c.seconds / repetitions
	ops := genOps(c.seed, nOps, c.size.rows)
	rep.meta["data"] = map[string]any{"rows": c.size.rows, "ops_per_repetition": nOps, "repetitions": repetitions,
		"write_share": writeShare, "zipf_s": zipfS, "index": "ordered on k", "loop": "closed"}
	rep.meta["durability"] = "WAL, default group commit, fsync on every flush"
	if viaRouter {
		rep.meta["durability"] = "WAL on both nodes, default group commit, fsync on; semi-sync SyncReplicas=1"
	}
	if c.trace {
		return wireTraced(c, rep, ops, viaRouter)
	}
	// Each repetition sets up afresh and runs the whole op stream, so every
	// repetition starts from and ends in the same table and index state.
	var setups []float64
	for r := 0; r < repetitions; r++ {
		t0 := time.Now()
		e, err := setupWire(c, viaRouter)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		res, err := drive(c, e, ops, nil)
		if err == nil {
			rep.count(res.attempted, res.failed)
			if cerr := e.checkCount(res.acked); cerr != nil {
				rep.fail("final count: %v", cerr)
			}
			wireEndToEnd(r, res, rep)
		}
		e.close()
		if err != nil {
			return err
		}
	}
	rep.set("setup_s", median(setups), len(setups))
	return nil
}

// wireEndToEnd folds one repetition into the report. The light class is
// reads of the plancache.DefaultSize hottest keys, whose statement texts
// recur often enough to stay in the plan cache; the heavy class is reads of
// every colder key, which mostly miss it and pay lex/parse/plan. Each is
// the class's median latency. Inserts, whose latency is a disk flush and
// follows the host's I/O load far more than the program, are printed with
// the read percentiles but not bounded.
func wireEndToEnd(r int, res *driveResult, rep *report) {
	n := len(res.ops)
	var hot, cold []float64
	for i, o := range res.ops {
		if o.write {
			continue
		}
		us := float64(res.endNs[i]-res.startNs[i]) / 1e3
		if o.key < plancache.DefaultSize {
			hot = append(hot, us)
		} else {
			cold = append(cold, us)
		}
	}
	rep.repetition("light_ms", median(hot)/1e3, len(hot))
	rep.repetition("heavy_ms", median(cold)/1e3, len(cold))
	rep.repetition("cpu_us_per_op", res.cpu.Seconds()*1e6/float64(n), n)
	rep.line("repetition %d: %.0f ops/s overall, %.0f ops/s median window", r, rate(n, res.elapsed), res.windowRate())
	for _, m := range []struct {
		name string
		xs   []float64
	}{{"read", res.latencies(false, 0, n)}, {"write", res.latencies(true, 0, n)}, {"hot_read", hot}, {"cold_read", cold}} {
		qs := []float64{0.5}
		if q := tailQ(len(m.xs)); q > 0.5 {
			qs = append(qs, q)
		}
		for _, q := range qs {
			rep.line("  %-26s %12.3f us  n=%d", fmt.Sprintf("%s_p%g_us", m.name, 100*q), percentile(m.xs, q), len(m.xs))
		}
	}
}

// histDelta is the change of one engine histogram over an interval.
func histDelta(before, after telemetry.HistSnapshot) telemetry.HistSnapshot {
	var d telemetry.HistSnapshot
	for i := range d.Counts {
		d.Counts[i] = after.Counts[i] - before.Counts[i]
		d.Count += d.Counts[i]
	}
	d.Sum = after.Sum - before.Sum
	return d
}

// commitOne inserts one fresh row through the storage API and commits it.
func commitOne(db *engine.DB, key, val int64) error {
	store := db.Store()
	tbl, err := store.Table("kv")
	if err != nil {
		return err
	}
	b := types.NewBatch(tbl.Schema())
	b.Cols[0].AppendInt(key)
	b.Cols[1].AppendInt(val)
	tx := store.Begin()
	if err := tx.Insert(tbl, b); err != nil {
		tx.Rollback()
		return err
	}
	return tx.Commit()
}

// probeIndex times Table.IndexLookupEq for each key on db's kv table.
func probeIndex(tr *tracer, name string, db *engine.DB, keys []int64) error {
	tbl, err := db.Store().Table("kv")
	if err != nil {
		return err
	}
	snap := db.Store().Snapshot()
	for _, k := range keys {
		var rows int
		var perr error
		tr.timed(name, k, func() {
			perr = tbl.IndexLookupEq("kv_k", types.NewInt(k), snap, func(b *types.Batch) error {
				rows += b.Len()
				return nil
			})
		})
		if perr != nil {
			return perr
		}
		if rows != 1 {
			return fmt.Errorf("index probe of key %d found %d rows", k, rows)
		}
	}
	return nil
}

// processCPU is the user plus system CPU time the process has used.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
