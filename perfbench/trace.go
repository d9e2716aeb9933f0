package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"rex/internal/core"
	"rex/internal/sched"
	"rex/internal/storage"
	"rex/internal/transport"
	"rex/internal/wire"
)

// The traced run wraps the public interfaces a replica is built from —
// storage.Log, storage.SnapshotStore, transport.Endpoint and the
// core.Factory/StateMachine — and times the calls into them. Counters run
// for the whole traced run; spans are kept only while recording is on
// (the second and fourth quarter of every open-loop segment, so the same
// run also measures the tracing overhead), in memory, and are written out
// at the end.

// span is one timed call at a layer boundary. Times are nanoseconds since
// the run's epoch.
type span struct {
	Name    string `json:"name"`
	Replica int    `json:"replica"`       // -1 for client-side spans
	Op      uint64 `json:"op,omitempty"`  // client write id, where known
	Seq     uint64 `json:"seq,omitempty"` // client op's generator slot
	Start   int64  `json:"start_ns"`
	End     int64  `json:"end_ns"`
	Wait    int64  `json:"wait_ns,omitempty"` // client ops: due → sent
	N       int64  `json:"n,omitempty"`       // bytes or records, per span name
}

// Span names.
const (
	spWrite     = "client.write"
	spRead      = "client.read"
	spStatus    = "client.status"
	spApply     = "apps.apply"
	spQuery     = "apps.query"
	spCkptWrite = "apps.checkpoint_write"
	spAppend    = "storage.append"
	spRecords   = "storage.records"
	spRewrite   = "storage.rewrite"
	spSnapSave  = "storage.snapshot_save"
	spDelivery  = "transport.delivery"
	maxSpans    = 4 << 20 // memory bound; later spans are counted as dropped
)

// Always-on counters of the traced run, indexed by ctr.
type ctr int

const (
	cApplyPrimary ctr = iota
	cApplyReplay
	cApplyNanos
	cQueries
	cQueryNanos
	cCkptWrites
	cCkptWriteNanos
	cAppendCalls
	cAppendRecords
	cAppendBytes
	cSnapSaves
	cSnapSaveNanos
	cRecordsCalls
	cRecordsNanos
	cSends
	cSendBytes
	cDelivMatched
	cDelivUnmatched
	numCtr
)

type counts [numCtr]int64

func (a counts) sub(b counts) counts {
	for i := range a {
		a[i] -= b[i]
	}
	return a
}

type tracer struct {
	epoch time.Time
	on    atomic.Bool // span recording

	ctr [numCtr]atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64

	net netMatcher
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, net: netMatcher{q: make(map[[2]int]*pairQ)}}
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(c ctr, n int64) { t.ctr[c].Add(n) }

func (t *tracer) counts() counts {
	var c counts
	for i := range c {
		c[i] = t.ctr[i].Load()
	}
	return c
}

func (t *tracer) record(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

func (t *tracer) droppedSpans() int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// ---- StateMachine ----

// smWrap times Apply, Query and WriteCheckpoint of one replica's
// application instance.
type smWrap struct {
	inner core.StateMachine
	rt    *sched.Runtime
	tr    *tracer
	id    int
}

func (t *tracer) factory(inner core.Factory, id int) core.Factory {
	return func(rt *sched.Runtime, host *core.TimerHost) core.StateMachine {
		return wrapSM(&smWrap{inner: inner(rt, host), rt: rt, tr: t, id: id})
	}
}

func (s *smWrap) Apply(ctx *core.Ctx, req []byte) []byte {
	start := s.tr.now()
	resp := s.inner.Apply(ctx, req)
	end := s.tr.now()
	if s.rt.Mode() == sched.ModeReplay {
		s.tr.add(cApplyReplay, 1)
	} else {
		s.tr.add(cApplyPrimary, 1)
	}
	s.tr.add(cApplyNanos, end-start)
	s.tr.record(span{Name: spApply, Replica: s.id, Op: writeIDOf(req), Start: start, End: end})
	return resp
}

func (s *smWrap) WriteCheckpoint(w io.Writer) error {
	start := s.tr.now()
	err := s.inner.WriteCheckpoint(w)
	end := s.tr.now()
	s.tr.add(cCkptWrites, 1)
	s.tr.add(cCkptWriteNanos, end-start)
	s.tr.record(span{Name: spCkptWrite, Replica: s.id, Start: start, End: end})
	return err
}

func (s *smWrap) ReadCheckpoint(r io.Reader) error { return s.inner.ReadCheckpoint(r) }

// query is the timed QueryHandler half of a wrapper.
type query struct {
	s  *smWrap
	qh core.QueryHandler
}

func (q query) Query(ctx *core.Ctx, b []byte) []byte {
	start := q.s.tr.now()
	resp := q.qh.Query(ctx, b)
	end := q.s.tr.now()
	q.s.tr.add(cQueries, 1)
	q.s.tr.add(cQueryNanos, end-start)
	q.s.tr.record(span{Name: spQuery, Replica: q.s.id, Start: start, End: end})
	return resp
}

// wrapSM returns s with exactly the optional interfaces its inner state
// machine implements: core type-asserts QueryHandler, QueryClassifier,
// ConflictClassifier and RangeStateMachine, and a wrapper that dropped
// one would silently change how the replica serves reads or traces locks.
func wrapSM(s *smWrap) core.StateMachine {
	qh, hasQH := s.inner.(core.QueryHandler)
	qc, hasQC := s.inner.(core.QueryClassifier)
	cc, hasCC := s.inner.(core.ConflictClassifier)
	rs, hasRS := s.inner.(core.RangeStateMachine)
	q := query{s, qh}
	type (
		QC = core.QueryClassifier
		CC = core.ConflictClassifier
		RS = core.RangeStateMachine
	)
	switch bits(hasQH, hasQC, hasCC, hasRS) {
	case 0b0000:
		return s
	case 0b0001:
		return struct {
			*smWrap
			RS
		}{s, rs}
	case 0b0010:
		return struct {
			*smWrap
			CC
		}{s, cc}
	case 0b0011:
		return struct {
			*smWrap
			CC
			RS
		}{s, cc, rs}
	case 0b0100:
		return struct {
			*smWrap
			QC
		}{s, qc}
	case 0b0101:
		return struct {
			*smWrap
			QC
			RS
		}{s, qc, rs}
	case 0b0110:
		return struct {
			*smWrap
			QC
			CC
		}{s, qc, cc}
	case 0b0111:
		return struct {
			*smWrap
			QC
			CC
			RS
		}{s, qc, cc, rs}
	case 0b1000:
		return struct {
			*smWrap
			query
		}{s, q}
	case 0b1001:
		return struct {
			*smWrap
			query
			RS
		}{s, q, rs}
	case 0b1010:
		return struct {
			*smWrap
			query
			CC
		}{s, q, cc}
	case 0b1011:
		return struct {
			*smWrap
			query
			CC
			RS
		}{s, q, cc, rs}
	case 0b1100:
		return struct {
			*smWrap
			query
			QC
		}{s, q, qc}
	case 0b1101:
		return struct {
			*smWrap
			query
			QC
			RS
		}{s, q, qc, rs}
	case 0b1110:
		return struct {
			*smWrap
			query
			QC
			CC
		}{s, q, qc, cc}
	default:
		return struct {
			*smWrap
			query
			QC
			CC
			RS
		}{s, q, qc, cc, rs}
	}
}

// bits packs flags most-significant first.
func bits(flags ...bool) int {
	v := 0
	for _, f := range flags {
		v <<= 1
		if f {
			v |= 1
		}
	}
	return v
}

// writeIDOf extracts the benchmark's write id from a hashdb set request
// (0 for anything else), so a replica's Apply span can be tied to the
// client op that caused it.
func writeIDOf(req []byte) uint64 {
	d := wire.NewDecoder(req)
	if d.Byte() != opSet {
		return 0
	}
	_ = d.String() // key
	v := d.BytesVal()
	if d.Err() != nil || len(v) < 8 {
		return 0
	}
	return binary.BigEndian.Uint64(v)
}

// ---- storage ----

type logWrap struct {
	inner storage.Log
	tr    *tracer
	id    int
}

func (t *tracer) log(inner storage.Log, id int) storage.Log {
	return &logWrap{inner: inner, tr: t, id: id}
}

func (l *logWrap) Append(rec []byte) error {
	return l.timedAppend(1, int64(len(rec)), func() error { return l.inner.Append(rec) })
}

func (l *logWrap) AppendBatch(recs [][]byte) error {
	var n int64
	for _, r := range recs {
		n += int64(len(r))
	}
	return l.timedAppend(int64(len(recs)), n, func() error { return l.inner.AppendBatch(recs) })
}

func (l *logWrap) timedAppend(records, bytes int64, fn func() error) error {
	start := l.tr.now()
	err := fn()
	end := l.tr.now()
	l.tr.add(cAppendCalls, 1)
	l.tr.add(cAppendRecords, records)
	l.tr.add(cAppendBytes, bytes)
	l.tr.record(span{Name: spAppend, Replica: l.id, Start: start, End: end, N: records})
	return err
}

func (l *logWrap) Records() ([][]byte, error) {
	start := l.tr.now()
	recs, err := l.inner.Records()
	end := l.tr.now()
	l.tr.add(cRecordsCalls, 1)
	l.tr.add(cRecordsNanos, end-start)
	l.tr.record(span{Name: spRecords, Replica: l.id, Start: start, End: end, N: int64(len(recs))})
	return recs, err
}

func (l *logWrap) Rewrite(recs [][]byte) error {
	start := l.tr.now()
	err := l.inner.Rewrite(recs)
	l.tr.record(span{Name: spRewrite, Replica: l.id, Start: start, End: l.tr.now(), N: int64(len(recs))})
	return err
}

func (l *logWrap) Close() error { return l.inner.Close() }

type snapWrap struct {
	inner storage.SnapshotStore
	tr    *tracer
	id    int
}

func (t *tracer) snapshots(inner storage.SnapshotStore, id int) storage.SnapshotStore {
	return &snapWrap{inner: inner, tr: t, id: id}
}

func (s *snapWrap) Save(id uint64, data []byte) error {
	start := s.tr.now()
	err := s.inner.Save(id, data)
	end := s.tr.now()
	s.tr.add(cSnapSaves, 1)
	s.tr.add(cSnapSaveNanos, end-start)
	s.tr.record(span{Name: spSnapSave, Replica: s.id, Start: start, End: end, N: int64(len(data))})
	return err
}

func (s *snapWrap) Load() (uint64, []byte, bool, error) { return s.inner.Load() }

// ---- transport ----

// netMatcher pairs each received message with its send, in FIFO order per
// (from, to) pair, to time one-way delivery from outside the transport.
// TCP keeps a pair's frames in order, so FIFO matching is exact while no
// message is dropped (tcp_drops_total stays 0); the payload length guards
// the match.
type netMatcher struct {
	mu sync.Mutex
	q  map[[2]int]*pairQ
}

type pairQ struct {
	mu    sync.Mutex // held across the inner Send, so queue order is wire order
	sends []sendRec
}

type sendRec struct {
	at  int64
	len int
}

func (m *netMatcher) pair(from, to int) *pairQ {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := m.q[[2]int{from, to}]
	if p == nil {
		p = &pairQ{}
		m.q[[2]int{from, to}] = p
	}
	return p
}

type epWrap struct {
	inner transport.Endpoint
	tr    *tracer
	id    int
}

func (t *tracer) endpoint(inner transport.Endpoint, id int) transport.Endpoint {
	return &epWrap{inner: inner, tr: t, id: id}
}

func (e *epWrap) ID() int { return e.inner.ID() }
func (e *epWrap) Close()  { e.inner.Close() }

func (e *epWrap) Send(to int, payload []byte) {
	e.tr.add(cSends, 1)
	e.tr.add(cSendBytes, int64(len(payload)))
	p := e.tr.net.pair(e.id, to)
	p.mu.Lock()
	p.sends = append(p.sends, sendRec{at: e.tr.now(), len: len(payload)})
	e.inner.Send(to, payload)
	p.mu.Unlock()
}

// maxResync bounds how far past a lost message the matcher looks for the
// next send of the received length.
const maxResync = 16

func (e *epWrap) Recv() ([]byte, int, bool) {
	payload, from, ok := e.inner.Recv()
	if !ok {
		return payload, from, ok
	}
	now := e.tr.now()
	p := e.tr.net.pair(from, e.id)
	p.mu.Lock()
	match := -1
	for i := 0; i < len(p.sends) && i < maxResync; i++ {
		if p.sends[i].len == len(payload) {
			match = i
			break
		}
	}
	var sent int64
	if match >= 0 {
		sent = p.sends[match].at
		p.sends = p.sends[match+1:]
	}
	p.mu.Unlock()
	if match < 0 {
		e.tr.add(cDelivUnmatched, 1)
		return payload, from, ok
	}
	e.tr.add(cDelivUnmatched, int64(match)) // sends skipped as lost
	e.tr.add(cDelivMatched, 1)
	e.tr.record(span{Name: spDelivery, Replica: e.id, Start: sent, End: now, N: int64(len(payload))})
	return payload, from, ok
}
