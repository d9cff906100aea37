// Command lambdaserver serves a lambdadb engine over TCP, speaking the
// length-prefixed text protocol of internal/server/wire. Each connection
// gets its own session (and so its own BEGIN/COMMIT state); statements run
// under the configured statement timeout and per-query memory budget, and
// are cancelled when their client disconnects.
//
// Usage:
//
//	lambdaserver -addr :5433 -admin-addr :8080
//	sqlshell -connect localhost:5433     # in another terminal
//
// The -admin-addr listener serves the operator endpoints: Prometheus
// /metrics, /healthz, /readyz (recovery- and replication-aware), and
// /debug/pprof. It is bound before recovery starts, so /readyz truthfully
// answers 503 while the write-ahead log replays.
//
// SIGTERM or SIGINT drains gracefully: /readyz starts failing, the server
// stops accepting, lets in-flight statements finish for -grace, then
// cancels them (their error responses are still delivered) and exits 0.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"lambdadb/internal/cluster"
	"lambdadb/internal/engine"
	"lambdadb/internal/obs"
	"lambdadb/internal/repl"
	"lambdadb/internal/server"
)

func main() {
	var (
		addr        = flag.String("addr", ":5433", "TCP listen address")
		adminAddr   = flag.String("admin-addr", "", "admin HTTP listen address (/metrics, /healthz, /readyz, /debug/pprof); empty = disabled")
		dataDir     = flag.String("data-dir", "", "durable data directory (write-ahead log + checkpoints); empty = in-memory")
		replicaOf   = flag.String("replica-of", "", "run as a read replica streaming from this primary (host:port); requires -data-dir")
		ckptEvery   = flag.Duration("checkpoint-interval", 0, "checkpoint the data directory this often (0 = manual CHECKPOINT only)")
		initScript  = flag.String("init", "", "execute this SQL script before accepting connections")
		workers     = flag.Int("workers", 0, "parallelism degree per query (0 = GOMAXPROCS)")
		maxConns    = flag.Int("max-conns", 0, "max concurrent connections (0 = unlimited)")
		stmtTimeout = flag.Duration("stmt-timeout", 0, "per-statement wall-clock timeout (0 = none)")
		memLimit    = flag.Int64("mem-limit", 0, "per-query memory budget in bytes (0 = unlimited)")
		grace       = flag.Duration("grace", server.DefaultDrainGrace, "how long a drain lets in-flight statements finish")
		logFormat   = flag.String("log-format", "text", "structured log format: text or json")
		readyMaxLag = flag.Int64("ready-max-lag", 0, "replica /readyz fails when commit-clock lag exceeds this many records (0 = no lag gate)")
		syncReps    = flag.Int("sync-replicas", 0, "acknowledge a commit only after this many replicas durably acked it, also once this node is promoted (0 = asynchronous replication)")
		syncTimeout = flag.Duration("sync-timeout", 0, "how long a semi-synchronous commit waits for replica acks before erroring (0 = 5s)")
		slowLog     = flag.String("slow-log", "", "append slow statements as JSON lines to this file (requires -slow-threshold)")
		slowThresh  = flag.Duration("slow-threshold", 0, "statements at least this slow land in the slow-query log")
		slowMax     = flag.Int64("slow-log-max-bytes", 64<<20, "rotate the slow-query log when it reaches this size (0 = never)")
		slowKeep    = flag.Int("slow-log-keep", 3, "rotated slow-query log files to keep")
	)
	flag.Parse()

	logger := obs.NewLogger(*logFormat, os.Stderr)
	slog.SetDefault(logger)

	// The admin endpoint binds before the engine opens, so /healthz answers
	// immediately and /readyz reports "recovering" during WAL replay.
	var admin *obs.Admin
	if *adminAddr != "" {
		admin = obs.NewAdmin(obs.AdminConfig{Addr: *adminAddr, MaxReplicaLag: *readyMaxLag})
		if err := admin.Listen(); err != nil {
			fatal(err)
		}
		go func() {
			if err := admin.Serve(); err != nil {
				logger.Error("admin listener failed", "err", err.Error())
			}
		}()
		// Stdout line is load-bearing, like the SQL listener's below: with
		// -admin-addr :0 it is how the smoke test learns the bound port.
		fmt.Printf("lambdaserver admin listening on %s\n", admin.Addr())
	}

	opts := []engine.Option{engine.WithLogger(logger)}
	if *workers > 0 {
		opts = append(opts, engine.WithWorkers(*workers))
	}
	if *stmtTimeout > 0 {
		opts = append(opts, engine.WithStatementTimeout(*stmtTimeout))
	}
	if *memLimit > 0 {
		opts = append(opts, engine.WithMemoryLimit(*memLimit))
	}
	if *ckptEvery > 0 {
		opts = append(opts, engine.WithCheckpointInterval(*ckptEvery))
	}
	if *replicaOf != "" {
		if *dataDir == "" {
			fatal(fmt.Errorf("-replica-of requires -data-dir (the replica mirrors the primary's log there)"))
		}
		if *ckptEvery > 0 {
			fatal(fmt.Errorf("-replica-of and -checkpoint-interval are mutually exclusive (a replica checkpoints at the stream's segment boundaries)"))
		}
		opts = append(opts, engine.WithReadReplica(*replicaOf))
	}
	if *slowLog != "" {
		if *slowThresh <= 0 {
			fatal(fmt.Errorf("-slow-log requires a positive -slow-threshold"))
		}
		rf, err := obs.OpenRotatingFile(*slowLog, *slowMax, *slowKeep)
		if err != nil {
			fatal(fmt.Errorf("open slow-query log: %w", err))
		}
		defer rf.Close()
		opts = append(opts, engine.WithSlowQueryThreshold(*slowThresh, rf))
	}

	var db *engine.DB
	var err error
	if *dataDir == "" {
		db = engine.Open(opts...)
	} else {
		if db, err = engine.OpenDir(*dataDir, opts...); err != nil {
			fatal(err)
		}
		if summary, ok := db.RecoverySummary(); ok {
			fmt.Fprintf(os.Stderr, "lambdaserver: %s: %s\n", *dataDir, summary)
		}
	}
	if *initScript != "" {
		script, err := os.ReadFile(*initScript)
		if err != nil {
			fatal(err)
		}
		if _, err := db.Exec(string(script)); err != nil {
			fatal(fmt.Errorf("init script %s: %w", *initScript, err))
		}
	}
	if admin != nil {
		admin.SetDB(db) // recovery (if any) is complete
	}

	// Replication role: a durable node joins the cluster role machinery —
	// it starts as a replica when -replica-of is set, else as a primary,
	// and can change roles at runtime via PROMOTE / FOLLOW (issued by an
	// operator or lambdarouter's automatic failover).
	var node *cluster.Node
	var replHandler server.ReplicationHandler
	if *dataDir != "" {
		n, err := cluster.NewNode(db, *replicaOf, cluster.NodeConfig{
			Replica: repl.ReplicaConfig{Logger: logger},
			Primary: repl.PrimaryConfig{
				Logger:       logger,
				SyncReplicas: *syncReps,
				SyncTimeout:  *syncTimeout,
			},
			Logger: logger,
		})
		if err != nil {
			fatal(err)
		}
		node = n
		replHandler = n
		if *replicaOf != "" {
			logger.Info("serving as read replica", "primary", *replicaOf)
		}
	}

	srv := server.New(db, server.Config{
		Addr:        *addr,
		MaxConns:    *maxConns,
		DrainGrace:  *grace,
		ReplHandler: replHandler,
		Logger:      logger,
	})
	if err := srv.Listen(); err != nil {
		fatal(err)
	}
	// Readiness flips before the announcement so anyone who learns the
	// address from stdout sees /readyz agree.
	if admin != nil {
		admin.SetServing(true)
	}
	// Stdout line is load-bearing: with -addr :0 it is how callers (the
	// smoke test, scripts) learn the bound port.
	fmt.Printf("lambdaserver listening on %s\n", srv.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-serveErr:
		if err != nil {
			fatal(err)
		}
	case got := <-sig:
		if admin != nil {
			admin.SetDraining() // /readyz fails first, so routers stop sending
		}
		logger.Info("draining", "signal", got.String(), "grace", grace.String())
		ctx, cancel := context.WithTimeout(context.Background(), *grace+30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			fatal(fmt.Errorf("drain: %w", err))
		}
		if err := <-serveErr; err != nil {
			fatal(err)
		}
		if node != nil {
			node.Close()
		}
		// Drained: every acknowledged commit is already fsynced; Close flushes
		// the log so the next start needs no replay.
		if err := db.Close(); err != nil {
			fatal(fmt.Errorf("close data directory: %w", err))
		}
		if admin != nil {
			admin.Close()
		}
		logger.Info("drained cleanly")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lambdaserver:", err)
	os.Exit(1)
}
