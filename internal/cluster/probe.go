package cluster

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"lambdadb/internal/server/client"
	"lambdadb/internal/server/wire"
	"lambdadb/internal/telemetry"
)

// probeSQL is what the failure detector asks every node. One row per
// replication link; a node's own role and epoch are on every row.
const probeSQL = "SELECT role, peer, epoch, wal_seg, wal_off, applied_clock, primary_clock, lag FROM system.replication"

// backend is the router's view of one cluster node.
type backend struct {
	addr     string
	readyURL string

	mu      sync.Mutex
	probe   *client.Conn // dedicated control connection (probe/PROMOTE/FOLLOW)
	lastOK  time.Time    // last successful probe
	ready   bool         // /readyz verdict (true when no URL is configured)
	role    string       // "primary" or "replica" per the last probe
	peer    string       // the primary a replica reports following
	epoch   uint64
	walSeg  uint64
	walOff  int64
	applied uint64 // commit clock applied locally
	lag     int64  // commit-clock records behind the primary
}

// healthyWithin reports whether the node answered a probe recently enough
// and (when an admin URL is configured) passes /readyz.
func (b *backend) healthyWithin(window time.Duration) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.ready && !b.lastOK.IsZero() && time.Since(b.lastOK) <= window
}

// control returns the node's control connection, dialing if needed.
func (b *backend) control(timeout time.Duration) (*client.Conn, error) {
	b.mu.Lock()
	c := b.probe
	b.mu.Unlock()
	if c != nil {
		return c, nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	c, err := client.DialRetry(ctx, b.addr, client.RetryConfig{MaxAttempts: 1})
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	if b.probe != nil {
		// Lost a dial race; keep the winner.
		loser := c
		c = b.probe
		defer loser.Close()
	} else {
		b.probe = c
	}
	b.mu.Unlock()
	return c, nil
}

func (b *backend) dropControl() {
	b.mu.Lock()
	c := b.probe
	b.probe = nil
	b.mu.Unlock()
	if c != nil {
		c.Close()
	}
}

// probeOnce health-checks the node over the wire (and /readyz when
// configured) and refreshes its role/epoch/lag view.
func (rt *Router) probeOnce(b *backend) {
	c, err := b.control(rt.cfg.DialTimeout)
	if err != nil {
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), rt.cfg.DialTimeout)
	res, err := c.ExecContext(ctx, probeSQL)
	cancel()
	if err != nil {
		b.dropControl()
		return
	}
	ready := true
	if b.readyURL != "" {
		ready = probeReady(b.readyURL, rt.cfg.DialTimeout)
	}
	col := map[string]int{}
	for i, name := range res.Columns {
		col[name] = i
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.lastOK = time.Now()
	b.ready = ready
	for _, row := range res.Rows {
		b.role = row[col["role"]].S
		b.peer = row[col["peer"]].S
		b.epoch = uint64(row[col["epoch"]].AsInt())
		b.walSeg = uint64(row[col["wal_seg"]].AsInt())
		b.walOff = row[col["wal_off"]].AsInt()
		b.applied = uint64(row[col["applied_clock"]].AsInt())
		b.lag = row[col["lag"]].AsInt()
	}
}

// probeReady asks the node's admin endpoint whether it would serve.
func probeReady(url string, timeout time.Duration) bool {
	hc := http.Client{Timeout: timeout}
	resp, err := hc.Get(url)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// supervise runs the failure detector: one probe loop per node plus an
// evaluation loop that elects or confirms the primary, fails over when it
// dies, and re-points stragglers. Each node is probed on its own goroutine
// and cadence — a single stalled backend (frozen process, blackholed
// network) must not delay anyone else's health stamps, or the whole
// cluster would look stale and the detector would go blind exactly when it
// is needed.
func (rt *Router) supervise() {
	defer close(rt.done)
	var wg sync.WaitGroup
	defer wg.Wait()
	for _, b := range rt.nodes {
		wg.Add(1)
		go func(b *backend) {
			defer wg.Done()
			tick := time.NewTicker(rt.cfg.ProbeEvery)
			defer tick.Stop()
			for {
				rt.probeOnce(b)
				select {
				case <-rt.stop:
					return
				case <-tick.C:
				}
			}
		}(b)
	}

	// Until the first probes complete, lastPrimarySeen doubles as a startup
	// grace so the router cannot "fail over" before ever having seen the
	// real primary.
	lastPrimarySeen := time.Now()
	tick := time.NewTicker(rt.cfg.ProbeEvery)
	defer tick.Stop()
	for {
		if rt.evaluate(&lastPrimarySeen) {
			lastPrimarySeen = time.Now()
		}
		select {
		case <-rt.stop:
			return
		case <-tick.C:
		}
	}
}

// evaluate updates the primary view and performs failover when due. It
// reports whether a healthy primary is currently in view.
func (rt *Router) evaluate(lastPrimarySeen *time.Time) bool {
	window := rt.cfg.FailAfter
	healthy := 0
	var claimant *backend // healthy node claiming "primary", highest epoch
	var claimEpoch uint64
	for _, b := range rt.nodes {
		if !b.healthyWithin(window) {
			continue
		}
		healthy++
		b.mu.Lock()
		role, epoch := b.role, b.epoch
		b.mu.Unlock()
		if role == "primary" && (claimant == nil || epoch > claimEpoch) {
			claimant, claimEpoch = b, epoch
		}
	}
	rt.m.RouterBackendsHealthy.Store(int64(healthy))

	if claimant != nil {
		rt.setPrimary(claimant)
		rt.reconcile(claimant, claimEpoch, window)
		return true
	}

	// No healthy claimant. Fail over once the old primary has been out of
	// view for the full detection window, and only if a replica is healthy
	// enough to take over; otherwise degrade to read-only serving.
	rt.setPrimary(nil)
	if time.Since(*lastPrimarySeen) <= window {
		return false
	}
	best := rt.mostCaughtUp(window)
	if best == nil {
		return false
	}
	rt.failover(best)
	return false
}

// mostCaughtUp picks the healthy replica with the most durable log — the
// one whose promotion loses nothing that was ever acked under semi-sync.
func (rt *Router) mostCaughtUp(window time.Duration) *backend {
	var best *backend
	var bestKey [4]uint64
	for _, b := range rt.nodes {
		if !b.healthyWithin(window) {
			continue
		}
		b.mu.Lock()
		key := [4]uint64{b.epoch, b.walSeg, uint64(b.walOff), b.applied}
		role := b.role
		b.mu.Unlock()
		if role != "replica" {
			continue
		}
		if best == nil || greaterKey(key, bestKey) {
			best, bestKey = b, key
		}
	}
	return best
}

func greaterKey(a, b [4]uint64) bool {
	for i := range a {
		if a[i] != b[i] {
			return a[i] > b[i]
		}
	}
	return false
}

// failover promotes b and re-points every other live node at it.
func (rt *Router) failover(b *backend) {
	rt.log.Warn("primary unreachable; promoting most-caught-up replica", "candidate", b.addr)
	c, err := b.control(rt.cfg.DialTimeout)
	if err != nil {
		rt.log.Error("failover: dial candidate", "candidate", b.addr, "err", err.Error())
		return
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	res, err := c.ExecContext(ctx, "PROMOTE")
	cancel()
	if err != nil {
		b.dropControl()
		rt.log.Error("failover: PROMOTE failed", "candidate", b.addr, "err", err.Error())
		return
	}
	var epoch int64
	if len(res.Rows) > 0 && len(res.Rows[0]) > 0 {
		epoch = res.Rows[0][0].AsInt()
	}
	b.mu.Lock()
	b.role, b.epoch, b.peer = "primary", uint64(epoch), ""
	b.mu.Unlock()
	rt.m.RouterFailovers.Add(1)
	rt.log.Warn("failover: promoted", "primary", b.addr, "epoch", epoch)
	rt.setPrimary(b)
	rt.reconcile(b, uint64(epoch), rt.cfg.FailAfter)
}

// reconcile points every healthy node that is not following the current
// primary — including a returned ex-primary still claiming the role under
// a stale epoch — at it with FOLLOW.
func (rt *Router) reconcile(primary *backend, primaryEpoch uint64, window time.Duration) {
	for _, b := range rt.nodes {
		if b == primary || !b.healthyWithin(window) {
			continue
		}
		b.mu.Lock()
		role, peer, epoch := b.role, b.peer, b.epoch
		b.mu.Unlock()
		if role == "primary" && epoch > primaryEpoch {
			// Never demote a higher epoch: our primary view is the stale
			// one; the next evaluate pass will adopt the newer claimant.
			continue
		}
		if role == "replica" && peer == primary.addr {
			continue // already chained correctly
		}
		c, err := b.control(rt.cfg.DialTimeout)
		if err != nil {
			continue
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_, err = c.ExecContext(ctx, fmt.Sprintf("FOLLOW '%s'", primary.addr))
		cancel()
		if err != nil {
			b.dropControl()
			rt.log.Warn("reconcile: FOLLOW failed", "node", b.addr, "primary", primary.addr, "err", err.Error())
			continue
		}
		b.mu.Lock()
		b.role, b.peer = "replica", primary.addr
		b.mu.Unlock()
		rt.log.Info("reconciled node onto current primary", "node", b.addr, "primary", primary.addr)
	}
}

// setPrimary records the router-wide primary view.
func (rt *Router) setPrimary(b *backend) {
	rt.mu.Lock()
	prev := rt.primary
	rt.primary = b
	rt.mu.Unlock()
	if prev != b && b != nil {
		rt.log.Info("primary view changed", "primary", b.addr)
	}
}

func (rt *Router) currentPrimary() *backend {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	return rt.primary
}

// notePrimaryRejected reacts to a write refused as read_only/not_primary:
// the node we routed to is fenced. Clear it from the primary view and, if
// it redirected us to a known node, adopt that immediately instead of
// waiting a probe round.
func (rt *Router) notePrimaryRejected(addr, hint string) {
	rt.mu.Lock()
	if rt.primary != nil && rt.primary.addr == addr {
		rt.primary = nil
	}
	if hint != "" {
		for _, b := range rt.nodes {
			if b.addr == hint {
				rt.primary = b
				break
			}
		}
	}
	rt.mu.Unlock()
	for _, b := range rt.nodes {
		if b.addr == addr {
			b.mu.Lock()
			b.role = "replica"
			b.mu.Unlock()
		}
	}
}

// readCandidates snapshots routing targets for one read: lag-healthy
// replicas chained to the current primary (rotated round-robin), the
// primary, and finally — degraded mode — any other healthy node.
func (rt *Router) readCandidates() (replicas []*backend, primary *backend, fallback []*backend) {
	window := rt.cfg.FailAfter
	primary = rt.currentPrimary()
	if primary != nil && !primary.healthyWithin(window) {
		primary = nil
	}
	for _, b := range rt.nodes {
		if b == primary || !b.healthyWithin(window) {
			continue
		}
		b.mu.Lock()
		role, peer, lag := b.role, b.peer, b.lag
		b.mu.Unlock()
		chained := primary == nil || (role == "replica" && peer == primary.addr)
		lagOK := rt.cfg.ReadyMaxLag <= 0 || lag <= rt.cfg.ReadyMaxLag
		if chained && lagOK && role == "replica" {
			replicas = append(replicas, b)
		} else {
			fallback = append(fallback, b)
		}
	}
	if len(replicas) > 1 {
		rt.mu.Lock()
		rot := rt.rr % len(replicas)
		rt.rr++
		rt.mu.Unlock()
		replicas = append(replicas[rot:], replicas[:rot]...)
	}
	return replicas, primary, fallback
}

// backendConn is one raw per-session connection to a backend: frames are
// relayed without decoding result sets, so the router adds no parsing cost
// on the data path.
type backendConn struct {
	addr string
	nc   net.Conn
	br   *bufio.Reader
}

func dialBackendConn(addr string, timeout time.Duration) (*backendConn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &backendConn{addr: addr, nc: nc, br: bufio.NewReader(nc)}, nil
}

func (b *backendConn) close() { b.nc.Close() }

// roundTrip sends one request frame and reads the single response frame.
// No read deadline: statement runtime belongs to the backend's own
// -stmt-timeout, not the router.
func (b *backendConn) roundTrip(typ byte, payload []byte) (byte, []byte, error) {
	if err := wire.WriteFrame(b.nc, typ, payload); err != nil {
		return 0, nil, err
	}
	return wire.ReadFrame(b.br)
}

// queryClock asks the backend (assumed primary) for its current commit
// clock — the barrier replica reads wait for (see refreshBarrier).
func (b *backendConn) queryClock() (uint64, error) {
	if err := b.nc.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		return 0, err
	}
	defer b.nc.SetDeadline(time.Time{})
	payload := wire.AppendTraced(telemetry.NewTraceID(), []byte("SELECT primary_clock FROM system.replication"))
	typ, resp, err := b.roundTrip(wire.Query, payload)
	if err != nil {
		return 0, err
	}
	if typ != wire.Result {
		return 0, fmt.Errorf("cluster: clock query answered with frame type %q", typ)
	}
	rs, err := wire.DecodeResultSet(resp)
	if err != nil {
		return 0, err
	}
	var clock int64
	for _, row := range rs.Rows {
		if len(row) > 0 && row[0].AsInt() > clock {
			clock = row[0].AsInt()
		}
	}
	return uint64(clock), nil
}
