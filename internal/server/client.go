package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"net"
	"sync"
	"time"

	"rex/internal/client"
	"rex/internal/core"
	"rex/internal/overload"
	"rex/internal/readpath"
	"rex/internal/rebalance"
	"rex/internal/reconfig"
	"rex/internal/shard"
	"rex/internal/wire"
)

// Client talks to one replica group's client ports: the client core
// (internal/client) over a TCP Conn, so rexctl and other TCP users get the
// same redirect, backoff, retry-budget and session policy the simulator's
// chaos runs check. It is safe for concurrent use; calls are serialized.
type Client struct {
	mu   sync.Mutex
	conn *tcpConn
	core *client.Client
}

// NewClient creates a client for an unsharded deployment (group 0) with a
// unique id over the given client addresses (one per replica, in
// replica-id order).
func NewClient(id uint64, addrs []string) *Client {
	return NewGroupClient(id, 0, addrs)
}

// NewGroupClient creates a client bound to one shard group. addrs are the
// client addresses of the group's replicas in replica-id order (for a
// sharded deployment: the nodes in the map's placement row).
func NewGroupClient(id uint64, group int, addrs []string) *Client {
	t := &tcpConn{addrs: addrs, group: group, conns: make([]net.Conn, len(addrs))}
	return &Client{conn: t, core: client.New(id, t, client.RealClock())}
}

// Do submits a replicated request to the client's group.
func (c *Client) Do(body []byte) ([]byte, error) {
	return c.DoCtx(context.Background(), body)
}

// DoCtx is Do honoring ctx: cancellation aborts the retry loop between
// attempts, and a ctx deadline bounds each attempt's network I/O and
// rides with the request so the primary refuses work it could no longer
// answer in time. Failures no retry can fix wrap client.ErrPermanent.
func (c *Client) DoCtx(ctx context.Context, body []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.conn.dl, _ = ctx.Deadline()
	return c.core.DoCtx(ctx, body)
}

// QueryLevel runs a read at the given consistency level (see
// client.Client.QueryLevel).
func (c *Client) QueryLevel(level readpath.Level, q []byte) ([]byte, error) {
	return c.QueryLevelCtx(context.Background(), level, q)
}

// QueryLevelCtx is QueryLevel honoring ctx like DoCtx.
func (c *Client) QueryLevelCtx(ctx context.Context, level readpath.Level, q []byte) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.conn.dl, _ = ctx.Deadline()
	return c.core.QueryLevelCtx(ctx, level, q)
}

// call runs one request against replica i outside the client core and
// returns its OK body.
func (c *Client) call(i int, kind byte, body []byte, what string) ([]byte, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	status, resp, err := c.conn.roundTrip(i, request{kind: kind, group: c.conn.group, body: body}, time.Time{})
	if err != nil {
		return nil, err
	}
	if status != StatusOK {
		return nil, fmt.Errorf("server: %s failed: %s", what, resp)
	}
	return resp, nil
}

// Status fetches the group's status from replica i.
func (c *Client) Status(i int) (GroupStatus, error) {
	resp, err := c.call(i, KindStatus, nil, "status")
	if err != nil {
		return GroupStatus{}, err
	}
	return decodeGroupStatus(resp)
}

// Membership fetches the group's committed membership from replica i.
func (c *Client) Membership(i int) (reconfig.Membership, error) {
	resp, err := c.call(i, KindMembership, nil, "membership fetch")
	if err != nil {
		return reconfig.Membership{}, err
	}
	return reconfig.DecodeValue(resp)
}

// FetchShardMap asks the replica at i for the deployment's shard map.
func (c *Client) FetchShardMap(i int) (*shard.ShardMap, error) {
	resp, err := c.call(i, KindShardMap, nil, "shard map fetch")
	if err != nil {
		return nil, err
	}
	return shard.DecodeShardMapBytes(resp)
}

// AddMember asks the group's primary to admit a new replica (it joins as
// a learner and is promoted once caught up). addr is its paxos address in
// a TCP deployment; empty for in-process transports.
func (c *Client) AddMember(id int, addr string) error {
	return c.reconfigOp(ReconfigAdd, id, 0, addr)
}

// RemoveMember asks the group's primary to retire a replica.
func (c *Client) RemoveMember(id int) error {
	return c.reconfigOp(ReconfigRemove, id, 0, "")
}

// ReplaceMember atomically swaps oldID out and admits newID in one
// committed membership change.
func (c *Client) ReplaceMember(oldID, newID int, addr string) error {
	return c.reconfigOp(ReconfigReplace, oldID, newID, addr)
}

func (c *Client) reconfigOp(op byte, id, newID int, addr string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := wire.NewEncoder(nil)
	e.Byte(op)
	e.Uvarint(uint64(id))
	e.Uvarint(uint64(newID))
	e.BytesVal([]byte(addr))
	req := request{kind: KindReconfig, group: c.conn.group, body: e.Bytes()}
	n := len(c.conn.addrs)
	target := c.core.Target
	for tried := 0; tried < 4*n; tried++ {
		status, resp, err := c.conn.roundTrip(target%n, req, time.Time{})
		if err != nil {
			target++
			continue
		}
		switch status {
		case StatusOK:
			return nil
		case StatusNotPrimary:
			var np core.ErrNotPrimary
			errors.As(statusErr(status, resp), &np)
			target++
			if np.Leader >= 0 {
				target = np.Leader
			}
		case StatusFailed:
			return fmt.Errorf("%w: %s", client.ErrPermanent, resp)
		default:
			// Transient: a change already in flight, or a stopped/removed
			// replica. Give it a moment, then move on — if the change is
			// in flight on the primary the next server's redirect sends us
			// straight back, while a parked removed replica would answer
			// this way forever.
			time.Sleep(50 * time.Millisecond)
			target++
		}
	}
	return errors.New("server: reconfiguration not accepted")
}

// Close closes all connections.
func (c *Client) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for i := range c.conn.conns {
		c.conn.drop(i)
	}
}

// tcpConn is the TCP client.Conn. It maps every status back to the error
// the replica would have returned in-process (statusErr), so the client
// core's one classification serves both transports.
type tcpConn struct {
	addrs []string
	group int
	conns []net.Conn // by replica index; nil until dialed
	// dl is the current call's I/O deadline, zero for none. The owning
	// Client sets it per call under its mutex.
	dl time.Time
}

func (t *tcpConn) Replicas() int { return len(t.addrs) }

func (t *tcpConn) Submit(i int, cl, seq uint64, body []byte, budget time.Duration) ([]byte, readpath.Token, error) {
	return t.exchange(i, request{kind: KindSubmit, group: t.group, client: cl, seq: seq, body: body, budget: budget})
}

func (t *tcpConn) Query(i int, level readpath.Level, tok readpath.Token, q []byte) ([]byte, readpath.Token, error) {
	return t.exchange(i, request{kind: KindQuery, group: t.group, level: level, token: tok, body: q})
}

// exchange sends a submit or query and decodes its answer.
func (t *tcpConn) exchange(i int, req request) ([]byte, readpath.Token, error) {
	status, body, err := t.roundTrip(i, req, t.dl)
	if err != nil {
		return nil, readpath.Token{}, err
	}
	return decodeReply(status, body)
}

// decodeReply turns a submit or query response into the response, the
// session token and the replica's typed error.
func decodeReply(status byte, body []byte) ([]byte, readpath.Token, error) {
	if status != StatusOK {
		return nil, readpath.Token{}, statusErr(status, body)
	}
	d := wire.NewDecoder(body)
	tok, err := readpath.DecodeToken(d)
	resp := d.BytesVal()
	if err == nil {
		err = d.Err()
	}
	if err != nil {
		return nil, readpath.Token{}, fmt.Errorf("%w: malformed response: %v", client.ErrPermanent, err)
	}
	return resp, tok, nil
}

// statusErr is errStatus's inverse.
func statusErr(status byte, body []byte) error {
	switch status {
	case StatusNotPrimary:
		leader, n := binary.Varint(body)
		if n <= 0 || leader < 0 || leader > math.MaxInt32 {
			leader = -1
		}
		return core.ErrNotPrimary{Leader: int(leader)}
	case StatusOverloaded:
		return overload.Shed{RetryAfter: decodeRetryAfter(body)}
	case StatusDeadline:
		return overload.ErrDeadlineExceeded
	case StatusError:
		for _, r := range retryable {
			if string(body) == r.Error() {
				return r
			}
		}
	case StatusFailed:
		if string(body) == core.ErrStaleSeq.Error() {
			return core.ErrStaleSeq
		}
	}
	return fmt.Errorf("%w: status %d: %s", client.ErrPermanent, status, body)
}

// decodeRetryAfter parses a StatusOverloaded body; a malformed one means
// no estimate — the status alone already carries the decision.
func decodeRetryAfter(b []byte) time.Duration {
	ms, n := binary.Uvarint(b)
	if n <= 0 || ms > uint64(overload.MaxWireDeadline/time.Millisecond) {
		return 0
	}
	return time.Duration(ms) * time.Millisecond
}

// roundTrip sends req to replica i and reads the answer: one encode, one
// write, one read. A replica that cannot be dialed is
// client.ErrUnavailable (the request never left); a connection lost
// mid-request is core.ErrStopped (the outcome is unknown), exactly as a
// replica process dying answers in-process.
func (t *tcpConn) roundTrip(i int, req request, dl time.Time) (byte, []byte, error) {
	frame := req.appendFrame(make([]byte, 0, 32+len(req.body)))
	if len(frame)-4 > maxFrame {
		// The server would refuse the length prefix and drop the
		// connection; fail before poisoning the stream.
		return 0, nil, fmt.Errorf("%w: request frame of %d bytes exceeds the %d-byte limit",
			client.ErrPermanent, len(frame)-4, maxFrame)
	}
	conn, err := t.conn(i)
	if err != nil {
		return 0, nil, fmt.Errorf("%w: replica %d: %v", client.ErrUnavailable, i, err)
	}
	conn.SetWriteDeadline(dl)
	if _, err := conn.Write(frame); err != nil {
		t.drop(i)
		return 0, nil, fmt.Errorf("%w: connection to replica %d lost: %v", core.ErrStopped, i, err)
	}
	resp, err := readFrameDeadline(conn, dl)
	if err == nil && len(resp) == 0 {
		err = errors.New("empty response")
	}
	if err != nil {
		t.drop(i)
		return 0, nil, fmt.Errorf("%w: connection to replica %d lost: %v", core.ErrStopped, i, err)
	}
	return resp[0], resp[1:], nil
}

func (t *tcpConn) conn(i int) (net.Conn, error) {
	if i < 0 || i >= len(t.addrs) {
		return nil, fmt.Errorf("no replica %d", i)
	}
	if t.conns[i] == nil {
		conn, err := net.Dial("tcp", t.addrs[i])
		if err != nil {
			return nil, err
		}
		t.conns[i] = conn
	}
	return t.conns[i], nil
}

func (t *tcpConn) drop(i int) {
	if t.conns[i] != nil {
		t.conns[i].Close()
		t.conns[i] = nil
	}
}

// groupClients returns one client per group of m, each following its
// group's placement row over nodeAddrs (node id → client address), with
// client ids idBase+group.
func groupClients(idBase uint64, m *shard.ShardMap, nodeAddrs []string) ([]shard.GroupClient, error) {
	if len(nodeAddrs) != m.Nodes {
		return nil, fmt.Errorf("server: %d node addresses for a %d-node map", len(nodeAddrs), m.Nodes)
	}
	clients := make([]shard.GroupClient, m.Groups())
	for g := range clients {
		addrs := make([]string, m.Replicas(g))
		for r := range addrs {
			addrs[r] = nodeAddrs[m.Placement[g][r]]
		}
		clients[g] = NewGroupClient(idBase+uint64(g), g, addrs)
	}
	return clients, nil
}

// NewShardRouter builds a keyed router over a sharded deployment (see
// groupClients for the client ids).
func NewShardRouter(idBase uint64, m *shard.ShardMap, nodeAddrs []string) (*shard.Router, error) {
	clients, err := groupClients(idBase, m, nodeAddrs)
	if err != nil {
		return nil, err
	}
	return shard.NewRouter(m, clients)
}

// NewCoordinator returns a rebalance coordinator over per-group clients
// of a rebalance-enabled deployment.
func NewCoordinator(idBase uint64, m *shard.ShardMap, nodeAddrs []string) (*rebalance.Coordinator, error) {
	clients, err := groupClients(idBase, m, nodeAddrs)
	if err != nil {
		return nil, err
	}
	return &rebalance.Coordinator{Groups: clients, Home: 0}, nil
}

// NewLiveShardRouter is NewShardRouter for a rebalance-enabled
// deployment: the router speaks the rebalance envelope and refetches the
// live map (highest version any node serves for kind 3) on wrong-group,
// stale, or permanent errors. An extra client id idBase+groups is used
// for map fetches.
func NewLiveShardRouter(idBase uint64, m *shard.ShardMap, nodeAddrs []string) (*shard.Router, error) {
	m = m.Clone()
	m.EnsureRanges()
	r, err := NewShardRouter(idBase, m, nodeAddrs)
	if err != nil {
		return nil, err
	}
	mapClient := NewGroupClient(idBase+uint64(m.Groups()), 0, nodeAddrs)
	r.Enveloped = true
	r.ClientID = idBase
	r.Fetch = func() (*shard.ShardMap, error) {
		var best *shard.ShardMap
		for i := range nodeAddrs {
			nm, err := mapClient.FetchShardMap(i)
			if err != nil {
				continue
			}
			if best == nil || nm.Version > best.Version {
				best = nm
			}
		}
		if best == nil {
			return nil, errors.New("server: no node answered a map fetch")
		}
		return best, nil
	}
	return r, nil
}
