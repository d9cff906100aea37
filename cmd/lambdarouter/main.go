// Command lambdarouter fronts a lambdadb cluster: clients connect to it
// with the ordinary wire protocol (sqlshell -connect, the Go client) and
// the router does the rest — writes go to the current primary, reads
// spread across lag-healthy replicas and see every write acked before
// them, and when the primary dies the router promotes the most-caught-up
// replica under a freshly fenced epoch and re-points the survivors.
//
// Usage:
//
//	lambdarouter -listen :5440 -nodes 127.0.0.1:5433,127.0.0.1:5434,127.0.0.1:5435
//
// The optional -ready-urls list (parallel to -nodes) adds each node's
// admin /readyz to the health check; -ready-max-lag rotates replicas whose
// commit-clock lag exceeds the bound out of read routing. -admin-addr
// serves the router's own /metrics and /healthz.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"lambdadb/internal/cluster"
	"lambdadb/internal/obs"
	"lambdadb/internal/telemetry"
)

func main() {
	var (
		listen      = flag.String("listen", ":5440", "TCP listen address for client connections")
		nodes       = flag.String("nodes", "", "comma-separated wire addresses of every cluster node (required)")
		readyURLs   = flag.String("ready-urls", "", "comma-separated admin /readyz URLs, parallel to -nodes (empty = wire probes only)")
		readyMaxLag = flag.Int64("ready-max-lag", 0, "rotate replicas out of read routing when commit-clock lag exceeds this many records (0 = no gate)")
		probeEvery  = flag.Duration("probe-every", 200*time.Millisecond, "health-check interval")
		failAfter   = flag.Duration("fail-after", 2*time.Second, "declare a node dead after this long without a successful probe; primary death triggers failover")
		writeWait   = flag.Duration("write-wait", 10*time.Second, "how long a write waits for an electable primary before being refused")
		adminAddr   = flag.String("admin-addr", "", "admin HTTP listen address (/metrics, /healthz); empty = disabled")
		logFormat   = flag.String("log-format", "text", "structured log format: text or json")
	)
	flag.Parse()

	logger := obs.NewLogger(*logFormat, os.Stderr)
	slog.SetDefault(logger)

	if *nodes == "" {
		fatal(fmt.Errorf("-nodes is required"))
	}
	var urls []string
	if *readyURLs != "" {
		urls = strings.Split(*readyURLs, ",")
	}
	metrics := &telemetry.Metrics{}
	rt, err := cluster.NewRouter(cluster.RouterConfig{
		Listen:      *listen,
		Nodes:       strings.Split(*nodes, ","),
		ReadyURLs:   urls,
		ReadyMaxLag: *readyMaxLag,
		ProbeEvery:  *probeEvery,
		FailAfter:   *failAfter,
		WriteWait:   *writeWait,
		Logger:      logger,
		Metrics:     metrics,
	})
	if err != nil {
		fatal(err)
	}

	if *adminAddr != "" {
		mux := http.NewServeMux()
		mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprintln(w, "ok")
		})
		mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "text/plain; version=0.0.4")
			fmt.Fprint(w, obs.RenderCounters(metrics))
		})
		aln, err := net.Listen("tcp", *adminAddr)
		if err != nil {
			fatal(err)
		}
		go func() {
			if err := http.Serve(aln, mux); err != nil {
				logger.Error("admin listener failed", "err", err.Error())
			}
		}()
		// Load-bearing stdout line: with -admin-addr :0 it is how callers
		// learn the bound port.
		fmt.Printf("lambdarouter admin listening on %s\n", aln.Addr())
	}

	if err := rt.Listen(); err != nil {
		fatal(err)
	}
	// Load-bearing stdout line: with -listen :0 it is how callers (the
	// chaos harness, scripts) learn the bound port.
	fmt.Printf("lambdarouter listening on %s\n", rt.Addr())

	serveErr := make(chan error, 1)
	go func() { serveErr <- rt.Serve() }()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-serveErr:
		if err != nil {
			fatal(err)
		}
	case got := <-sig:
		logger.Info("shutting down", "signal", got.String())
		rt.Close()
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "lambdarouter:", err)
	os.Exit(1)
}
