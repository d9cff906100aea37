package main

import (
	"fmt"

	"lambdadb/internal/engine"
	"lambdadb/internal/server/client"
	"lambdadb/internal/sql"
	"lambdadb/internal/telemetry"
)

// Sample sizes of the in-process layer probes that follow a traced drive;
// probeCommits leaves ten samples beyond storage.commit_p99_us.
const (
	probeReads   = 200
	probeWrites  = 100
	probeCommits = 1000
)

// wireTraced is the traced run of a wire workload. The op stream runs
// untraced on one set-up and traced on a second, identical set-up, so the
// two differ only by tracing. The traced set-up then serves the layer
// probes.
func wireTraced(c config, rep *report, ops []op, viaRouter bool) error {
	a, err := setupWire(c, viaRouter)
	if err != nil {
		return err
	}
	plain, err := drive(c, a, ops, nil)
	if err == nil {
		if cerr := a.checkCount(plain.acked); cerr != nil {
			rep.fail("final count (untraced pass): %v", cerr)
		}
	}
	a.close()
	if err != nil {
		return err
	}
	rep.count(plain.attempted, plain.failed)

	e, err := setupWire(c, viaRouter)
	if err != nil {
		return err
	}
	defer e.close()
	tr := newTracer()
	tenth := max(len(ops)/10, 1)
	if err := probeIndex(tr, "storage.probe_first", e.reader, readKeys(ops[:tenth])); err != nil {
		rep.fail("index probe: %v", err)
	}
	before := snapshotCounters(e)
	traced, err := drive(c, e, ops, tr)
	if err != nil {
		return err
	}
	after := snapshotCounters(e)
	rep.count(traced.attempted, traced.failed)
	if err := e.checkCount(traced.acked); err != nil {
		rep.fail("final count: %v", err)
	}
	if err := probeIndex(tr, "storage.probe_last", e.reader, readKeys(ops[len(ops)-tenth:])); err != nil {
		rep.fail("index probe: %v", err)
	}
	rep.set("trace.overhead_pct", overheadPct(rate(plain.attempted, plain.elapsed), rate(traced.attempted, traced.elapsed)), 1)

	hits := after.hits - before.hits
	misses := after.misses - before.misses
	rep.set("plancache.hit_ratio", float64(hits)/float64(max(hits+misses, 1)), int(hits+misses))
	rep.set("plancache.invalidations", float64(after.invalidations-before.invalidations), 1)
	fsync := histDelta(before.fsync, after.fsync)
	rep.set("wal.fsync_us", fsync.Mean()/1e3, int(fsync.Count))
	rep.set("wal.fsync_p99_us", float64(fsync.Quantile(0.99))/1e3, int(fsync.Count))
	batch := histDelta(before.batch, after.batch)
	rep.set("wal.records_per_fsync", batch.Mean(), int(batch.Count))
	wait := histDelta(before.commitWait, after.commitWait)
	rep.set("wal.commit_wait_us", wait.Mean()/1e3, int(wait.Count))
	lag := histDelta(before.applyLag, after.applyLag)
	rep.set("repl.apply_lag_records", lag.Mean(), int(lag.Count))
	rep.set("cluster.read_retries", float64(after.readRetries-before.readRetries), 1)

	joined := tr.selfTimes(true)
	rep.set("server.transport_read_us", medianNs(joined["client.read"])/1e3, len(joined["client.read"]))
	rep.set("server.transport_write_us", medianNs(joined["client.write"])/1e3, len(joined["client.write"]))

	nextKey := int64(c.size.rows + len(ops))
	probeLayers(c, e, tr, rep, sampleReads(ops, probeReads), &nextKey)
	if viaRouter {
		clusterLayers(c, e, tr, rep, sampleReads(ops, probeReads), &nextKey)
	}
	self := tr.selfTimes(false)
	rep.set("storage.probe_first_us", medianNs(self["storage.probe_first"])/1e3, len(self["storage.probe_first"]))
	rep.set("storage.probe_last_us", medianNs(self["storage.probe_last"])/1e3, len(self["storage.probe_last"]))
	return c.writeSpans(tr, rep)
}

// counters are the engine and router counters a traced drive reads as
// deltas.
type counters struct {
	hits, misses, invalidations int64
	readRetries                 int64
	fsync, batch, commitWait    telemetry.HistSnapshot
	applyLag                    telemetry.HistSnapshot
}

func snapshotCounters(e *wireEnv) counters {
	rm := e.reader.Metrics()
	ph := e.primary.Metrics().Hist()
	c := counters{
		hits:          rm.PlanCacheHits.Load(),
		misses:        rm.PlanCacheMisses.Load(),
		invalidations: rm.PlanCacheInvalidations.Load(),
		fsync:         ph.WalFsync.Snapshot(),
		batch:         ph.WalBatchRecords.Snapshot(),
		commitWait:    ph.StageCommitWait.Snapshot(),
	}
	if e.replica != nil {
		c.applyLag = e.replica.Metrics().Hist().ReplApplyLag.Snapshot()
	}
	if e.routerStats != nil {
		c.readRetries = e.routerStats.RouterReadRetries.Load()
	}
	return c
}

func readKeys(ops []op) []int64 {
	var keys []int64
	for _, o := range ops {
		if !o.write {
			keys = append(keys, o.key)
		}
	}
	return keys
}

// sampleReads picks up to n read ops spread evenly over the stream.
func sampleReads(ops []op, n int) []op {
	var reads []op
	for _, o := range ops {
		if !o.write {
			reads = append(reads, o)
		}
	}
	step := max(len(reads)/n, 1)
	var out []op
	for i := 0; i < len(reads) && len(out) < n; i += step {
		out = append(out, reads[i])
	}
	return out
}

// probeLayers times the engine, SQL front end, planner, executor and
// storage commit in process, on the set-up the traced drive left behind.
func probeLayers(c config, e *wireEnv, tr *tracer, rep *report, reads []op, nextKey *int64) {
	rs := e.reader.NewSession()
	defer rs.Close()
	ws := e.primary.NewSession()
	defer ws.Close()
	stats := e.reader.NewSession()
	defer stats.Close()
	stats.CollectStats(true)

	var runNs []int64
	for _, o := range reads {
		text := o.sql(c.seed)
		var res *engine.Result
		var err error
		tr.timed("engine.read", o.key, func() { res, err = rs.Exec(text) })
		if err == nil {
			err = checkEngineRead(c.seed, o, res)
		}
		tr.timed("sql.parse_read", o.key, func() { _, err = sql.Parse(text) })
		tr.timed("plan.explain_read", o.key, func() { _, err = rs.Explain(text) })
		if err == nil {
			_, err = stats.Exec(text)
		}
		if st := stats.LastStats(); err == nil && st != nil {
			runNs = append(runNs, st.TimeNanos)
		}
		if err != nil {
			rep.fail("read probe of key %d: %v", o.key, err)
		}
	}
	for i := 0; i < probeWrites; i++ {
		w := op{write: true, key: *nextKey}
		*nextKey++
		text := w.sql(c.seed)
		var err error
		tr.timed("sql.parse_write", w.key, func() { _, err = sql.Parse(text) })
		tr.timed("engine.write", w.key, func() { _, err = ws.Exec(text) })
		if err != nil {
			rep.fail("write probe: %v", err)
		}
	}
	commitBefore := e.primary.Metrics().Hist().StageCommitWait.Snapshot()
	for i := 0; i < probeCommits; i++ {
		k := *nextKey
		*nextKey++
		var err error
		tr.timed("storage.commit", k, func() { err = commitOne(e.primary, k, valueOf(c.seed, k)) })
		if err != nil {
			rep.fail("commit probe: %v", err)
		}
	}
	wait := histDelta(commitBefore, e.primary.Metrics().Hist().StageCommitWait.Snapshot())

	self := tr.selfTimes(false)
	us := func(name string) (float64, int) { return medianNs(self[name]) / 1e3, len(self[name]) }
	set := func(metric, span string) {
		v, n := us(span)
		rep.set(metric, v, n)
	}
	set("engine.read_us", "engine.read")
	set("engine.write_us", "engine.write")
	set("sql.parse_read_us", "sql.parse_read")
	set("sql.parse_write_us", "sql.parse_write")
	explain, n := us("plan.explain_read")
	parse, _ := us("sql.parse_read")
	rep.set("plan.build_read_us", explain-parse, n)
	rep.set("exec.read_run_us", medianNs(runNs)/1e3, len(runNs))
	commit, n := us("storage.commit")
	rep.set("storage.commit_us", commit, n)
	commits := usOf(self["storage.commit"])
	rep.set("storage.commit_p99_us", percentile(commits, tailQ(len(commits))), n)
	if e.replica != nil {
		// Without replicas the commit path has no semi-sync wait at all.
		rep.set("repl.semisync_wait_us", commit-wait.Mean()/1e3, n)
	}
}

func checkEngineRead(seed int64, o op, res *engine.Result) error {
	if len(res.Rows) != 1 || res.Rows[0][0].AsInt() != valueOf(seed, o.key) {
		return fmt.Errorf("read of key %d = %v", o.key, res.Rows)
	}
	return nil
}

// clusterLayers measures the router hop (the same statement through the
// router and directly to the node that serves it) and the read-your-writes
// barrier (WAIT FOR CLOCK on the replica right after a primary commit).
func clusterLayers(c config, e *wireEnv, tr *tracer, rep *report, reads []op, nextKey *int64) {
	dial := func(addr string) *client.Conn {
		conn, err := client.Dial(addr)
		if err != nil {
			rep.fail("dial %s: %v", addr, err)
			return nil
		}
		return conn
	}
	viaRouterR, viaRouterW := dial(e.target), dial(e.target)
	toReplica, toPrimary := dial(e.replicaAddr), dial(e.primaryAddr)
	for _, conn := range []*client.Conn{viaRouterR, viaRouterW, toReplica, toPrimary} {
		if conn == nil {
			return
		}
		defer conn.Close()
	}
	exec := func(span string, conn *client.Conn, o op) {
		var r *client.Result
		var err error
		tr.timed(span, o.key, func() { r, err = conn.Exec(o.sql(c.seed)) })
		if err == nil {
			err = checkReply(c.seed, o, r)
		}
		if err != nil {
			rep.fail("%s: %v", span, err)
		}
	}
	for _, o := range reads {
		exec("cluster.read_via_router", viaRouterR, o)
		exec("cluster.read_direct", toReplica, o)
	}
	for i := 0; i < probeWrites; i++ {
		exec("cluster.write_via_router", viaRouterW, op{write: true, key: *nextKey})
		exec("cluster.write_direct", toPrimary, op{write: true, key: *nextKey + 1})
		*nextKey += 2
		q := fmt.Sprintf("WAIT FOR CLOCK %d", e.primary.Store().Snapshot())
		var err error
		tr.timed("cluster.barrier", 0, func() { _, err = toReplica.Exec(q) })
		if err != nil {
			rep.fail("barrier: %v", err)
		}
	}
	self := tr.selfTimes(false)
	med := func(name string) float64 { return medianNs(self[name]) / 1e3 }
	rep.set("cluster.hop_read_us", med("cluster.read_via_router")-med("cluster.read_direct"), len(self["cluster.read_direct"]))
	rep.set("cluster.hop_write_us", med("cluster.write_via_router")-med("cluster.write_direct"), len(self["cluster.write_direct"]))
	rep.set("cluster.barrier_us", med("cluster.barrier"), len(self["cluster.barrier"]))
}
