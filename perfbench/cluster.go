package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"rex/internal/apps"
	"rex/internal/core"
	"rex/internal/env"
	"rex/internal/obs"
	"rex/internal/reconfig"
	"rex/internal/server"
	"rex/internal/storage"
	"rex/internal/transport"
)

// node is one replica process's worth of wiring, as cmd/rexd builds it
// for an unsharded group: TCP endpoint, fsync-on-append WAL, snapshot
// directory, replica, client server and a metrics registry.
type node struct {
	wal *storage.FileLog
	reg *obs.Registry
	rep *core.Replica
	srv *server.Server
}

// cluster is a 3-replica hashdb group on loopback.
type cluster struct {
	dir     string
	clients []string // client addresses in replica-id order
	nodes   []*node
}

// freeAddrs reserves n loopback ports.
func freeAddrs(n int) ([]string, error) {
	var lns []net.Listener
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	addrs := make([]string, 0, n)
	for i := 0; i < n; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns = append(lns, ln)
		addrs = append(addrs, ln.Addr().String())
	}
	return addrs, nil
}

// startCluster boots the group under dir. With tr non-nil every layer the
// benchmark times is wrapped (see trace.go); otherwise the wiring is
// exactly cmd/rexd's. A port freeAddrs reserved can be taken, by another
// connection's ephemeral port, before the replica binds it; the boot is
// then retried on fresh ports.
func startCluster(dir string, tr *tracer) (*cluster, error) {
	for attempt := 1; ; attempt++ {
		c, err := bootCluster(dir, tr)
		if err == nil || !errors.Is(err, syscall.EADDRINUSE) || attempt == 5 {
			return c, err
		}
	}
}

func bootCluster(dir string, tr *tracer) (*cluster, error) {
	peers, err := freeAddrs(replicas)
	if err != nil {
		return nil, err
	}
	clients, err := freeAddrs(replicas)
	if err != nil {
		return nil, err
	}
	c := &cluster{dir: dir, clients: clients}
	e := env.NewReal()
	app := apps.HashDB()
	for i := 0; i < replicas; i++ {
		n, err := startNode(e, app, i, peers, clients[i], filepath.Join(dir, fmt.Sprintf("r%d", i)), tr)
		if err != nil {
			c.stop()
			return nil, fmt.Errorf("replica %d: %w", i, err)
		}
		c.nodes = append(c.nodes, n)
	}
	return c, nil
}

func startNode(e env.Env, app apps.App, id int, peers []string, clientAddr, dir string, tr *tracer) (*node, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	ep, err := transport.ListenTCP(id, peers)
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{reg: obs.NewRegistry()}
	ep.RegisterMetrics(n.reg)
	wal, err := storage.OpenFileLog(filepath.Join(dir, "wal"), true)
	if err != nil {
		ep.Close()
		return nil, fmt.Errorf("open WAL: %w", err)
	}
	n.wal = wal
	walObs := storage.NewLogMetrics()
	walObs.Register(n.reg)
	wal.SetMetrics(walObs)
	snaps, err := storage.NewFileSnapshots(filepath.Join(dir, "snapshots"))
	if err != nil {
		ep.Close()
		wal.Close()
		return nil, fmt.Errorf("snapshot store: %w", err)
	}
	// cmd/rexd's template with its flag defaults.
	cfg := core.Config{
		ID:              id,
		N:               len(peers),
		Env:             e,
		Endpoint:        ep,
		Log:             wal,
		Snapshots:       snaps,
		Factory:         app.Factory,
		Workers:         8,
		Timers:          app.Timers,
		ReadWorkers:     2,
		CheckpointEvery: 30 * time.Second,
		ElectionTimeout: 150 * time.Millisecond,
		Seed:            int64(id) + 1,
		Metrics:         n.reg,
		OnMembership: func(m reconfig.Membership) {
			for nid, a := range m.Addrs {
				ep.SetPeer(nid, a)
			}
		},
	}
	if tr != nil {
		cfg.Endpoint = tr.endpoint(ep, id)
		cfg.Log = tr.log(wal, id)
		cfg.Snapshots = tr.snapshots(snaps, id)
		cfg.Factory = tr.factory(app.Factory, id)
	}
	rep, err := core.NewReplica(cfg)
	if err != nil {
		ep.Close()
		wal.Close()
		return nil, err
	}
	if err := rep.Start(); err != nil {
		wal.Close()
		return nil, fmt.Errorf("start: %w", err)
	}
	n.rep = rep
	srv, err := server.Listen(rep, clientAddr)
	if err != nil {
		rep.Stop()
		wal.Close()
		return nil, fmt.Errorf("client listener: %w", err)
	}
	n.srv = srv
	return n, nil
}

// waitPrimary waits for an elected primary and returns its id.
func (c *cluster) waitPrimary(timeout time.Duration) (int, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for i, n := range c.nodes {
			if n.rep.Role() == core.RolePrimary {
				return i, nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return -1, errors.New("no primary elected")
}

// quiesce waits until every replica has applied the primary's whole
// chosen log.
func (c *cluster) quiesce(primary int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		target := c.nodes[primary].rep.Health().ChosenSeq
		done := true
		for _, n := range c.nodes {
			h := n.rep.Health()
			if h.Applied < target {
				done = false
			}
		}
		if done {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replicas did not apply chosen instance %d within %v", target, timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop shuts the group down in cmd/rexd's order and removes its data.
func (c *cluster) stop() {
	for _, n := range c.nodes {
		if n.srv != nil {
			n.srv.Close()
		}
	}
	for _, n := range c.nodes {
		if n.rep != nil {
			n.rep.Stop()
		}
		n.wal.Close()
	}
	os.RemoveAll(c.dir)
}
