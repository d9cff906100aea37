// Command sqlshell is an interactive SQL shell over the main-memory
// engine, with the paper's extensions available: ITERATE, KMEANS,
// PAGERANK, NAIVE_BAYES_TRAIN/PREDICT, and λ-expressions.
//
// Usage:
//
//	sqlshell                        # interactive, embedded in-memory engine
//	sqlshell -data-dir ./data       # embedded engine, durable (WAL + checkpoints)
//	sqlshell -f file.sql            # execute a script, print results
//	sqlshell -connect localhost:5433  # talk to a running lambdaserver
//
// Meta commands: \q quit, \d list tables, \d <table> show columns +
// indexes + ANALYZE statistics (works over -connect too), \explain
// SELECT ... show the optimized plan, \timing toggle per-statement
// timing, \stats show the per-operator stats of the last statement,
// \checkpoint checkpoint a durable (-data-dir) database (over -connect, run
// the CHECKPOINT statement), \replication show replication role and
// progress (works over -connect),
// \metrics show engine counters and latency percentiles, \health probe a
// server's admin endpoint (-admin or \health host:port).
//
// Every statement carries a trace ID; on error the shell prints it, so the
// failure can be found again in the server's logs and system.query_log.
package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"time"

	"lambdadb/internal/engine"
	"lambdadb/internal/exec"
	"lambdadb/internal/server/client"
	"lambdadb/internal/telemetry"
)

// interrupts routes SIGINT to the running statement: the first Ctrl-C
// cancels its context (the shell survives and prints the error), a second
// Ctrl-C — or one arriving while no statement runs — exits the shell.
type interrupts struct {
	mu      sync.Mutex
	cancel  context.CancelFunc
	pressed bool // a Ctrl-C already cancelled the current statement
}

// watch installs the SIGINT handler; call once at startup.
func (in *interrupts) watch() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	go func() {
		for range ch {
			in.mu.Lock()
			cancel, again := in.cancel, in.pressed
			in.pressed = true
			in.mu.Unlock()
			if cancel == nil || again {
				fmt.Fprintln(os.Stderr, "\ninterrupted")
				os.Exit(130)
			}
			fmt.Fprintln(os.Stderr, "\ncancelling statement (Ctrl-C again to quit)")
			cancel()
		}
	}()
}

// statementContext returns a context for one statement; done must be called
// when the statement finishes.
func (in *interrupts) statementContext() (ctx context.Context, done func()) {
	ctx, cancel := context.WithCancel(context.Background())
	in.mu.Lock()
	in.cancel, in.pressed = cancel, false
	in.mu.Unlock()
	return ctx, func() {
		in.mu.Lock()
		in.cancel, in.pressed = nil, false
		in.mu.Unlock()
		cancel()
	}
}

// executor is what the shell runs statements on: a local engine.Session,
// or a remoteExec talking to a lambdaserver.
type executor interface {
	ExecContext(ctx context.Context, text string) (*engine.Result, error)
}

// remoteExec runs statements on a lambdaserver. The wire protocol cancels
// by closing the connection, so after a Ctrl-C (or any transport failure)
// the next statement transparently redials — note that also discards any
// open BEGIN, since transactions live in the server-side session.
type remoteExec struct {
	addr string
	conn *client.Conn
}

func (r *remoteExec) ExecContext(ctx context.Context, text string) (*engine.Result, error) {
	if r.conn == nil {
		c, err := client.Dial(r.addr)
		if err != nil {
			return nil, err
		}
		r.conn = c
	}
	res, err := r.conn.ExecContext(ctx, text)
	if err != nil {
		var se *client.ServerError
		if !errors.As(err, &se) {
			// Transport-level failure: the connection is dead. Drop it so
			// the next statement redials.
			r.conn.Close()
			r.conn = nil
		}
		return nil, err
	}
	return &engine.Result{
		Columns:  res.Columns,
		Types:    res.Types,
		Rows:     res.Rows,
		Affected: res.Affected,
	}, nil
}

func (r *remoteExec) close() {
	if r.conn != nil {
		r.conn.Close()
		r.conn = nil
	}
}

func main() {
	var (
		file    = flag.String("f", "", "execute this SQL script instead of reading stdin")
		timing  = flag.Bool("timing", false, "print per-statement wall time")
		workers = flag.Int("workers", 0, "parallelism degree (0 = GOMAXPROCS)")
		dataDir = flag.String("data-dir", "", "durable data directory (write-ahead log + checkpoints); empty = in-memory")
		connect = flag.String("connect", "", "connect to a lambdaserver at host:port instead of running an embedded engine")
		admin   = flag.String("admin", "", "lambdaserver admin endpoint (host:port) for \\health")
	)
	flag.Parse()

	in := &interrupts{}
	in.watch()
	state := &shellState{timing: *timing, adminAddr: *admin}

	// Remote mode: no local engine at all; statements go over TCP.
	if *connect != "" {
		if *workers > 0 || *dataDir != "" {
			fmt.Fprintln(os.Stderr, "warning: -workers and -data-dir configure the embedded engine and are ignored with -connect (set them on lambdaserver)")
		}
		remote := &remoteExec{addr: *connect}
		defer remote.close()
		if *file != "" {
			runScript(in, remote, *file, state)
			return
		}
		banner := fmt.Sprintf("lambdadb shell — connected to %s", *connect)
		interactive(banner, nil, nil, remote, in, state)
		return
	}

	var opts []engine.Option
	if *workers > 0 {
		opts = append(opts, engine.WithWorkers(*workers))
	}
	var db *engine.DB
	if *dataDir == "" {
		db = engine.Open(opts...)
	} else {
		var err error
		if db, err = engine.OpenDir(*dataDir, opts...); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if summary, ok := db.RecoverySummary(); ok {
			fmt.Fprintf(os.Stderr, "%s: %s\n", *dataDir, summary)
		}
		defer db.Close()
	}
	session := db.NewSession()
	defer session.Close()
	// Arm per-operator stats so \stats always has a tree to show.
	session.CollectStats(true)

	if *file != "" {
		runScript(in, session, *file, state)
		return
	}

	banner := "lambdadb shell — SQL with ITERATE, KMEANS, PAGERANK, NAIVE_BAYES_* and λ-expressions"
	interactive(banner, db, session, session, in, state)
}

// shellState holds the toggles shared between statements and meta commands.
type shellState struct {
	timing    bool
	adminAddr string // default target of \health (the -admin flag)
}

// describeTable prints a table's columns, indexes, and last-ANALYZE
// statistics. It is built on plain SQL against the table and the
// system.indexes / system.table_stats virtual tables, so it works both
// embedded and over -connect.
func describeTable(ex executor, table string) {
	run := func(text string) (*engine.Result, error) {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		return ex.ExecContext(ctx, text)
	}
	head, err := run(fmt.Sprintf(`SELECT * FROM %s LIMIT 0`, table))
	if err != nil {
		fmt.Fprintln(os.Stderr, "error:", err)
		return
	}
	fmt.Printf("Table %s\n", table)
	for i, col := range head.Columns {
		fmt.Printf("  %-16s %s\n", col, head.Types[i])
	}

	lit := strings.ReplaceAll(table, "'", "''")
	idx, err := run(fmt.Sprintf(`SELECT index_name, column_name, kind, keys, entries
		FROM system.indexes WHERE table_name = '%s' ORDER BY index_name`, lit))
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "error:", err)
	case len(idx.Rows) == 0:
		fmt.Println("Indexes: none")
	default:
		fmt.Println("Indexes:")
		for _, r := range idx.Rows {
			fmt.Printf("  %s ON (%s) USING %s — %d keys, %d entries\n",
				r[0].S, r[1].S, r[2].S, r[3].I, r[4].I)
		}
	}

	st, err := run(fmt.Sprintf(`SELECT column_name, row_count, null_count, ndv, min, max, hist_buckets
		FROM system.table_stats WHERE table_name = '%s' ORDER BY column_name`, lit))
	switch {
	case err != nil:
		fmt.Fprintln(os.Stderr, "error:", err)
	case len(st.Rows) == 0:
		fmt.Printf("Statistics: none (run ANALYZE %s)\n", table)
	default:
		fmt.Printf("Statistics (%d rows at last ANALYZE):\n", st.Rows[0][1].I)
		for _, r := range st.Rows {
			fmt.Printf("  %-16s ndv=%d nulls=%d min=%s max=%s hist=%d\n",
				r[0].S, r[3].I, r[2].I, r[4].S, r[5].S, r[6].I)
		}
	}
}

func runScript(in *interrupts, ex executor, path string, state *shellState) {
	script, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if err := runText(in, ex, string(script), state); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func runText(in *interrupts, ex executor, text string, state *shellState) error {
	ctx, done := in.statementContext()
	defer done()
	// Tag the statement with a trace ID up front: on failure the same ID is
	// printed here and recorded in the server's query log and slow-query
	// log, so "what happened to my statement" is one grep away.
	traceID := telemetry.NewTraceID()
	ctx = telemetry.WithTraceID(ctx, traceID)
	start := time.Now()
	res, err := ex.ExecContext(ctx, text)
	if err != nil {
		var se *client.ServerError
		if errors.As(err, &se) && se.TraceID != "" {
			traceID = se.TraceID // trust the server's echo over our own
		}
		return fmt.Errorf("%w (trace %s)", err, traceID)
	}
	if res != nil {
		fmt.Print(res)
	}
	if state.timing {
		rows := 0
		if res != nil {
			rows = len(res.Rows) + res.Affected
		}
		fmt.Printf("time: %v (%d rows)\n", time.Since(start), rows)
	}
	return nil
}

// interactive runs the prompt loop. db and session are nil in remote mode;
// meta commands that need the local engine say so.
func interactive(banner string, db *engine.DB, session *engine.Session, ex executor, in *interrupts, state *shellState) {
	fmt.Println(banner)
	fmt.Println(`type \q to quit, \d to list tables, \d <table> for indexes and stats,`)
	fmt.Println(`\explain <select> for plans,`)
	fmt.Println(`\timing to toggle timing, \stats for the last statement's operator stats,`)
	fmt.Println(`\checkpoint to checkpoint a durable database (-data-dir),`)
	fmt.Println(`\replication for replication status,`)
	fmt.Println(`\metrics for engine counters and latency percentiles,`)
	fmt.Println(`\prepare for this session's prepared statements and the plan cache,`)
	fmt.Println(`\health [host:port] to probe a server's admin endpoint;`)
	fmt.Println(`end statements with ;`)
	scanner := bufio.NewScanner(os.Stdin)
	scanner.Buffer(make([]byte, 1<<20), 1<<20)
	var buf strings.Builder
	prompt := func() {
		if buf.Len() == 0 {
			fmt.Print("sql> ")
		} else {
			fmt.Print("...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if buf.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if !metaCommand(db, session, ex, trimmed, state) {
				return
			}
			prompt()
			continue
		}
		buf.WriteString(line)
		buf.WriteByte('\n')
		if strings.HasSuffix(trimmed, ";") {
			text := buf.String()
			buf.Reset()
			if err := runText(in, ex, text, state); err != nil {
				fmt.Fprintln(os.Stderr, "error:", err)
			}
		}
		prompt()
	}
}

// metaCommand handles backslash commands; it returns false to quit.
// db and session are nil when connected to a remote server; ex always works
// (it is the remote executor in that case), so \d <table> runs everywhere.
func metaCommand(db *engine.DB, session *engine.Session, ex executor, cmd string, state *shellState) bool {
	local := func() bool {
		if db == nil {
			fmt.Fprintf(os.Stderr, "%s requires a local database (not available with -connect; query the system.* tables instead)\n", strings.Fields(cmd)[0])
			return false
		}
		return true
	}
	switch {
	case cmd == `\q` || cmd == `\quit`:
		return false
	case cmd == `\timing`:
		state.timing = !state.timing
		if state.timing {
			fmt.Println("timing on")
		} else {
			fmt.Println("timing off")
		}
	case cmd == `\stats`:
		if !local() {
			break
		}
		if st := session.LastStats(); st != nil {
			fmt.Print(exec.FormatStatsTree(st))
			fmt.Printf("peak memory: %s\n", exec.FormatBytes(session.LastPeakBytes()))
		} else {
			fmt.Println("no statement executed yet")
		}
	case cmd == `\d`:
		if !local() {
			break
		}
		names := db.Store().TableNames()
		sort.Strings(names)
		for _, n := range names {
			tbl, err := db.Store().Table(n)
			if err != nil {
				continue
			}
			fmt.Printf("%s %s (%d rows)\n", n, tbl.Schema(), tbl.NumRows(db.Store().Snapshot()))
		}
	case strings.HasPrefix(cmd, `\d `):
		describeTable(ex, strings.TrimSpace(strings.TrimPrefix(cmd, `\d `)))
	case cmd == `\checkpoint`:
		if !local() {
			break
		}
		stats, err := db.Checkpoint()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else {
			fmt.Printf("checkpoint at clock %d (%d old log segment(s) removed)\n",
				stats.Clock, stats.SegmentsRemoved)
		}
	case cmd == `\replication`:
		// Plain SQL against system.replication, so it works both embedded
		// and over -connect.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := ex.ExecContext(ctx, `SELECT * FROM system.replication`)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else {
			fmt.Print(res)
		}
	case cmd == `\metrics`:
		// Plain SQL against system.metrics (counters plus histogram
		// percentile rows), so it works both embedded and over -connect.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := ex.ExecContext(ctx, `SELECT name, value FROM system.metrics`)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else {
			fmt.Print(res)
		}
	case cmd == `\prepare`:
		// PREPARE/EXECUTE themselves are plain SQL; this shows what is
		// currently prepared and what the shared plan cache holds.
		if session != nil {
			names := session.Prepared()
			sort.Strings(names)
			if len(names) == 0 {
				fmt.Println("no prepared statements in this session (PREPARE name AS ...)")
			} else {
				fmt.Printf("prepared: %s\n", strings.Join(names, ", "))
			}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		res, err := ex.ExecContext(ctx, `SELECT position, statement, num_params, hits FROM system.plan_cache`)
		cancel()
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else {
			fmt.Print(res)
		}
	case cmd == `\health` || strings.HasPrefix(cmd, `\health `):
		addr := strings.TrimSpace(strings.TrimPrefix(cmd, `\health`))
		if addr == "" {
			addr = state.adminAddr
		}
		if addr == "" {
			fmt.Fprintln(os.Stderr, `\health needs an admin endpoint: pass -admin host:port or \health host:port`)
			break
		}
		probeHealth(addr)
	case strings.HasPrefix(cmd, `\explain `):
		if !local() {
			break
		}
		out, err := session.Explain(strings.TrimPrefix(cmd, `\explain `))
		if err != nil {
			fmt.Fprintln(os.Stderr, "error:", err)
		} else {
			fmt.Print(out)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n", cmd)
	}
	return true
}

// probeHealth hits a lambdaserver admin endpoint's /healthz and /readyz and
// prints one line per probe, e.g. "readyz: 503 (replica lag 12 records
// exceeds the 5-record readiness bound)".
func probeHealth(addr string) {
	cl := &http.Client{Timeout: 5 * time.Second}
	for _, probe := range []string{"healthz", "readyz"} {
		resp, err := cl.Get("http://" + addr + "/" + probe)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", probe, err)
			continue
		}
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		resp.Body.Close()
		msg := strings.TrimSpace(string(body))
		if resp.StatusCode == http.StatusOK {
			fmt.Printf("%s: %d (%s)\n", probe, resp.StatusCode, msg)
		} else {
			fmt.Printf("%s: %d (%s) — not ready\n", probe, resp.StatusCode, msg)
		}
	}
}
