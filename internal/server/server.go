// Package server exposes Rex replicas to remote clients over a minimal
// TCP protocol, used by cmd/rexd and cmd/rexctl. One server can host
// several shard groups' replicas (one process, one listener). The client
// side is the one client core (internal/client) over a TCP Conn.
//
// Every frame is [4-byte big-endian length][payload]. A request payload is
//
//	[version][kind][uvarint group][uvarint client][uvarint seq][kind fields][uvarint deadline ms]?
//
// and a response payload is [status][body]. A request whose version is
// not Version is answered StatusFailed. The trailing deadline is optional:
// the client's remaining budget, which the primary checks before
// admitting a submit.
//
//	kind             fields                                  ok body
//	3 shard map      bytes (ignored)                         the map (live on a rebalance node)
//	4 status         bytes (ignored)                         role, leader, applied, completed, outstanding
//	5 reconfig       bytes: op, id, new id, addr             empty
//	6 membership     bytes (ignored)                         the committed membership
//	7 query          level, session token, bytes query       session token, bytes response
//	8 submit         bytes request                           session token, bytes response
//
//	status           body                     meaning
//	0 ok             see above
//	1 not primary    varint leader (-1: none)  not executed; retry at the hint
//	2 error          message                   retryable elsewhere or later (stopped, read waits, primary-only)
//	3 failed         message                   permanent: retrying cannot help
//	4 overloaded     uvarint retry-after ms    shed before execution; retry after the hint
//	5 deadline       message                   the propagated deadline expired before execution
//
// errStatus is the one mapping of a replica error onto a status; the TCP
// client's statusErr is its inverse, so the client core classifies a wire
// answer exactly as it classifies the in-process error.
//
// Framing is defensive: an oversized length prefix gets an error response
// and the connection is dropped (the stream cannot be resynced), and a
// frame whose body never arrives times out instead of pinning the
// connection handler forever.
package server

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"rex/internal/core"
	"rex/internal/overload"
	"rex/internal/readpath"
	"rex/internal/rebalance"
	"rex/internal/reconfig"
	"rex/internal/shard"
	"rex/internal/wire"
)

// Protocol constants.
const (
	Version byte = 6

	KindShardMap   byte = 3
	KindStatus     byte = 4
	KindReconfig   byte = 5
	KindMembership byte = 6
	KindQuery      byte = 7
	KindSubmit     byte = 8

	StatusOK         byte = 0
	StatusNotPrimary byte = 1
	StatusError      byte = 2
	StatusFailed     byte = 3
	StatusOverloaded byte = 4
	StatusDeadline   byte = 5

	// Reconfig ops carried in a KindReconfig body.
	ReconfigAdd     byte = 1
	ReconfigRemove  byte = 2
	ReconfigReplace byte = 3

	maxFrame = 64 << 20
)

// frameBodyTimeout bounds how long a connection may dangle between a
// frame's length prefix and its last body byte. A package variable so the
// truncated-frame test doesn't take 10 seconds.
var frameBodyTimeout = 10 * time.Second

// errOversized marks a frame whose declared length exceeds maxFrame; the
// server answers it with StatusError before dropping the connection.
var errOversized = errors.New("server: oversized frame")

// DefaultMaxInflightPerGroup is the per-group concurrent-request budget
// a server applies when Options leaves it unset: requests past it are
// NACKed StatusOverloaded at the server edge, before touching the
// replica. The per-connection budget is structural — the protocol is
// one request per connection at a time — so this bounds total
// concurrency at (open connections) ∧ (groups × budget).
const DefaultMaxInflightPerGroup = 1024

// serverRetryAfter is the retry-after hint for edge NACKs (the server's
// own budget, as opposed to core sheds which carry the controller's
// estimate).
const serverRetryAfter = 10 * time.Millisecond

// Options tunes a listening server.
type Options struct {
	// MaxInflightPerGroup bounds requests concurrently executing per
	// hosted group. 0 selects DefaultMaxInflightPerGroup; negative
	// disables the budget.
	MaxInflightPerGroup int
}

// Server serves client connections for the replicas of one process.
type Server struct {
	replicas    map[int]*core.Replica // by group id
	smap        *shard.ShardMap       // nil when unsharded
	live        bool                  // rebalance-enabled: serve the live map
	maxInflight int                   // per-group budget; 0 = disabled
	ln          net.Listener
	mu          sync.Mutex
	closed      bool
	conns       map[net.Conn]struct{} // open connections, closed with the server
	inflight    map[int]int           // executing requests per group
	wg          sync.WaitGroup
}

// Listen starts serving a single, unsharded replica on addr (it answers
// group 0; shard-map fetches report an error).
func Listen(replica *core.Replica, addr string) (*Server, error) {
	return ListenWith(replica, addr, Options{})
}

// ListenWith is Listen with explicit options.
func ListenWith(replica *core.Replica, addr string, opts Options) (*Server, error) {
	return listen(map[int]*core.Replica{0: replica}, nil, false, addr, opts)
}

// ListenNode starts serving every group a shard node hosts, plus the
// node's shard map.
func ListenNode(n *shard.Node, addr string) (*Server, error) {
	return ListenNodeWith(n, addr, Options{})
}

// ListenNodeWith is ListenNode with explicit options.
func ListenNodeWith(n *shard.Node, addr string, opts Options) (*Server, error) {
	replicas := make(map[int]*core.Replica)
	for _, g := range n.Groups() {
		replicas[g] = n.Replica(g)
	}
	return listen(replicas, n.Map(), n.RebalanceEnabled(), addr, opts)
}

func listen(replicas map[int]*core.Replica, smap *shard.ShardMap, live bool, addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	maxInflight := opts.MaxInflightPerGroup
	if maxInflight == 0 {
		maxInflight = DefaultMaxInflightPerGroup
	}
	if maxInflight < 0 {
		maxInflight = 0
	}
	s := &Server{
		replicas:    replicas,
		smap:        smap,
		live:        live,
		maxInflight: maxInflight,
		ln:          ln,
		conns:       make(map[net.Conn]struct{}),
		inflight:    make(map[int]int),
	}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() net.Addr { return s.ln.Addr() }

// Close stops accepting, closes every open connection — unblocking
// handlers idling in a read, so shutdown does not wait on silent
// clients — and waits for the handlers to drain.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.ln.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serveConn(conn)
	}
}

// admitGroup takes one slot of the group's in-flight budget; false means
// the edge budget is exhausted and the request must be NACKed without
// touching the replica.
func (s *Server) admitGroup(group int) bool {
	if s.maxInflight <= 0 {
		return true
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.inflight[group] >= s.maxInflight {
		return false
	}
	s.inflight[group]++
	return true
}

func (s *Server) releaseGroup(group int) {
	if s.maxInflight <= 0 {
		return
	}
	s.mu.Lock()
	s.inflight[group]--
	s.mu.Unlock()
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	for {
		frame, err := readFrame(conn)
		if err != nil {
			if errors.Is(err, errOversized) {
				// Tell the client why before hanging up; the stream can't
				// be resynced past a length we refuse to read.
				writeFrame(conn, StatusError, []byte(err.Error()))
			}
			return
		}
		status, body := s.handle(frame)
		if err := writeFrame(conn, status, body); err != nil {
			return
		}
	}
}

func (s *Server) handle(frame []byte) (byte, []byte) {
	req, err := decodeRequest(frame)
	if err != nil {
		if errors.Is(err, errVersion) {
			return StatusFailed, []byte(err.Error())
		}
		return StatusError, []byte(err.Error())
	}
	if req.kind == KindShardMap {
		if s.smap == nil {
			return StatusError, []byte("server: not sharded (no shard map)")
		}
		// A rebalance-enabled node hosting the map home serves the live
		// map from replicated state; anything else (home group elsewhere,
		// replica still catching up) falls back to the static bootstrap
		// map — clients converge via NACK-driven refetches against a node
		// that does host the home.
		if s.live {
			if rep := s.replicas[0]; rep != nil {
				if m := liveMapFrom(rep); m != nil {
					return StatusOK, m.EncodeBytes()
				}
			}
		}
		return StatusOK, s.smap.EncodeBytes()
	}
	rep := s.replicas[req.group]
	if rep == nil {
		// Placement is static per map version: no retry against this node
		// can ever find the group.
		return StatusFailed, []byte(fmt.Sprintf("server: group %d not hosted here", req.group))
	}
	switch req.kind {
	case KindSubmit, KindQuery:
		// The per-group in-flight budget guards the load-bearing kinds at
		// the server edge: past it, NACK without doing any replica work.
		if !s.admitGroup(req.group) {
			return StatusOverloaded, overloadedBody(serverRetryAfter)
		}
		defer s.releaseGroup(req.group)
		var resp []byte
		var tok readpath.Token
		if req.kind == KindSubmit {
			resp, tok, err = rep.SubmitTokenDeadline(req.client, req.seq, req.body, req.budget)
		} else {
			resp, tok, err = rep.QueryLevel(req.level, req.token, req.body)
		}
		if err != nil {
			return errStatus(err)
		}
		e := wire.NewEncoder(make([]byte, 0, 16+len(tok.Cut)*2+len(resp)))
		tok.Encode(e)
		e.BytesVal(resp)
		return StatusOK, e.Bytes()
	case KindStatus:
		st := rep.Stats()
		e := wire.NewEncoder(nil)
		e.Byte(byte(st.Role))
		e.Varint(int64(rep.Leader()))
		e.Uvarint(st.Applied)
		e.Uvarint(st.ReqsCompleted)
		e.Uvarint(uint64(st.Outstanding))
		return StatusOK, e.Bytes()
	case KindReconfig:
		return handleReconfig(rep, req.body)
	default: // KindMembership
		// A replica parked after its own removal still knows a membership,
		// but a stale one — make the client ask a live member instead.
		if rep.Role() == core.RoleRemoved {
			return StatusError, []byte("replica removed from membership")
		}
		return StatusOK, reconfig.EncodeValue(rep.Membership())
	}
}

// request is one decoded request frame.
type request struct {
	kind   byte
	group  int
	client uint64
	seq    uint64
	body   []byte         // the submit request, the query, or a reconfig body
	level  readpath.Level // KindQuery
	token  readpath.Token // KindQuery
	budget time.Duration  // the propagated deadline, 0 for none
}

var errVersion = errors.New("server: unsupported protocol version")

// decodeRequest parses and validates a request payload; only a request it
// returns without error reaches a replica.
func decodeRequest(frame []byte) (request, error) {
	var req request
	d := wire.NewDecoder(frame)
	if v := d.Byte(); d.Err() == nil && v != Version {
		return req, fmt.Errorf("%w %d (want %d)", errVersion, v, Version)
	}
	req.kind = d.Byte()
	group := d.Uvarint()
	req.client = d.Uvarint()
	req.seq = d.Uvarint()
	if d.Err() != nil {
		return req, errors.New("malformed request")
	}
	if group > maxGroup {
		return req, fmt.Errorf("malformed request: group %d", group)
	}
	req.group = int(group)
	switch req.kind {
	case KindQuery:
		req.level = readpath.Level(d.Byte())
		tok, err := readpath.DecodeToken(d)
		req.token = tok
		req.body = d.BytesVal()
		if err != nil || d.Err() != nil {
			return req, errors.New("malformed request: query fields")
		}
		if !req.level.Valid() {
			return req, fmt.Errorf("malformed request: consistency level %d", uint8(req.level))
		}
	case KindSubmit, KindShardMap, KindStatus, KindReconfig, KindMembership:
		req.body = d.BytesVal()
		if d.Err() != nil {
			return req, errors.New("malformed request")
		}
	default:
		return req, fmt.Errorf("unknown request kind %d", req.kind)
	}
	budget, err := overload.DecodeWireDeadline(d)
	if err != nil {
		return req, fmt.Errorf("malformed request: %v", err)
	}
	req.budget = budget
	return req, nil
}

// maxGroup bounds a decoded group id so it always fits an int.
const maxGroup = 1 << 30

// appendFrame appends req's frame, length prefix included, to buf.
func (req request) appendFrame(buf []byte) []byte {
	e := wire.NewEncoder(append(buf, 0, 0, 0, 0))
	e.Byte(Version)
	e.Byte(req.kind)
	e.Uvarint(uint64(req.group))
	e.Uvarint(req.client)
	e.Uvarint(req.seq)
	if req.kind == KindQuery {
		e.Byte(byte(req.level))
		req.token.Encode(e)
	}
	e.BytesVal(req.body)
	overload.AppendWireDeadline(e, req.budget)
	b := e.Bytes()
	binary.BigEndian.PutUint32(b[len(buf):], uint32(len(b)-len(buf)-4))
	return b
}

// errStatus is the one mapping of a replica error onto the wire.
// Not-primary, shed and deadline NACKs each have a status; the errors in
// retryable cross as StatusError with their exact message; anything else
// — a stale sequence number, a rejected membership change, a read the
// replica refuses — no retry can fix.
func errStatus(err error) (byte, []byte) {
	var np core.ErrNotPrimary
	switch {
	case errors.As(err, &np):
		e := wire.NewEncoder(nil)
		e.Varint(int64(np.Leader))
		return StatusNotPrimary, e.Bytes()
	case errors.Is(err, overload.ErrOverloaded):
		// Both overload NACKs guarantee the request was never admitted
		// into the trace: the client may safely retry (or discard the op
		// from a linearizability history) without risking duplicate
		// execution.
		return StatusOverloaded, overloadedBody(overload.RetryAfter(err))
	case errors.Is(err, overload.ErrDeadlineExceeded):
		return StatusDeadline, []byte(overload.ErrDeadlineExceeded.Error())
	}
	for _, r := range retryable {
		if errors.Is(err, r) {
			return StatusError, []byte(r.Error())
		}
	}
	return StatusFailed, []byte(err.Error())
}

// retryable are the errors another replica, or the same one later, can
// get past: a stopped or demoted replica, a membership change still in
// flight, and the read path's routing errors.
var retryable = []error{
	core.ErrStopped,
	core.ErrReconfigInFlight,
	readpath.ErrPrimaryOnly,
	readpath.ErrFrontierWait,
	readpath.ErrLeaseWait,
}

// liveMapFrom reads the live shard map from the map home replica's local
// replicated state; nil if the replica cannot answer (not the map home,
// still starting, stopped).
func liveMapFrom(rep *core.Replica) *shard.ShardMap {
	resp, err := rep.Query(rebalance.GetMapQuery())
	if err != nil {
		return nil
	}
	st, payload, err := shard.DecodeReply(resp)
	if err != nil || st != shard.ReplyOK {
		return nil
	}
	m, _, err := rebalance.DecodeGetMapReply(payload)
	if err != nil {
		return nil
	}
	return m
}

// overloadedBody encodes a StatusOverloaded body: the uvarint
// retry-after hint in milliseconds, rounded up; 0 means no estimate.
func overloadedBody(ra time.Duration) []byte {
	var ms uint64
	if ra > 0 {
		ms = uint64((ra + time.Millisecond - 1) / time.Millisecond)
	}
	return binary.AppendUvarint(nil, ms)
}

func handleReconfig(rep *core.Replica, body []byte) (byte, []byte) {
	d := wire.NewDecoder(body)
	op := d.Byte()
	id := int(d.Uvarint())
	newID := int(d.Uvarint())
	addr := string(d.BytesVal())
	if d.Err() != nil {
		return StatusError, []byte("malformed reconfig request")
	}
	var err error
	switch op {
	case ReconfigAdd:
		err = rep.AddMember(id, addr)
	case ReconfigRemove:
		err = rep.RemoveMember(id)
	case ReconfigReplace:
		err = rep.ReplaceMember(id, newID, addr)
	default:
		return StatusFailed, []byte(fmt.Sprintf("unknown reconfig op %d", op))
	}
	if err != nil {
		return errStatus(err)
	}
	return StatusOK, nil
}

// GroupStatus is one replica's answer to a KindStatus request.
type GroupStatus struct {
	Role          core.Role
	Leader        int
	Applied       uint64
	ReqsCompleted uint64
	Outstanding   int
}

func decodeGroupStatus(b []byte) (GroupStatus, error) {
	d := wire.NewDecoder(b)
	st := GroupStatus{
		Role:          core.Role(d.Byte()),
		Leader:        int(d.Varint()),
		Applied:       d.Uvarint(),
		ReqsCompleted: d.Uvarint(),
		Outstanding:   int(d.Uvarint()),
	}
	return st, d.Err()
}

func readFrame(r io.Reader) ([]byte, error) {
	return readFrameDeadline(r, time.Time{})
}

// readFrameDeadline is readFrame with an optional overall deadline: a
// zero dl lets the connection idle forever between frames (the server's
// posture), a non-zero dl caps both the wait for the header and the wait
// for the body (a client honoring a context deadline).
func readFrameDeadline(r io.Reader, dl time.Time) ([]byte, error) {
	conn, _ := r.(net.Conn)
	if conn != nil {
		conn.SetReadDeadline(dl)
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n > maxFrame {
		return nil, errOversized
	}
	// Once a length has been announced the body must follow promptly; a
	// peer that dies mid-frame must not pin this handler forever.
	if conn != nil {
		bodyDl := time.Now().Add(frameBodyTimeout)
		if !dl.IsZero() && dl.Before(bodyDl) {
			bodyDl = dl
		}
		conn.SetReadDeadline(bodyDl)
	}
	buf := make([]byte, n)
	if got, err := io.ReadFull(r, buf); err != nil {
		return nil, fmt.Errorf("server: truncated frame (%d of %d bytes): %w", got, n, err)
	}
	return buf, nil
}

func writeFrame(w io.Writer, status byte, body []byte) error {
	var hdr [5]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(body)+1))
	hdr[4] = status
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(body)
	return err
}
