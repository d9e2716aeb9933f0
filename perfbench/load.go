package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"rex/internal/apps/hashdb"
	"rex/internal/readpath"
	"rex/internal/server"
	"rex/internal/wire"
)

const opSet = hashdb.OpSet

type opKind uint8

const (
	opWrite opKind = iota
	opRead
	opStatus
)

// op is one generated request.
type op struct {
	kind opKind
	key  string
	id   uint64 // write id (writes only)
	seq  uint64 // generator slot (0 for preload and verification ops)
	due  int64  // ns since epoch when the op was due (open loop)
	lag  int64  // how late the generator offered it
}

// result is one completed (or failed) op. Times are ns since the epoch;
// in the closed loop due == sent.
type result struct {
	kind            opKind
	id              uint64 // write id (writes only)
	due, sent, done int64
	failed          bool
	traced          bool // sent while span recording was on
	lag             int64
}

func (r result) latency() int64 { return r.done - r.due }

// generator produces a workload's deterministic op stream. The sequence
// depends only on the seed; open and closed loops draw from it in order.
type generator struct {
	mu     sync.Mutex
	w      *workload
	rng    *rand.Rand
	zipf   *rand.Zipf
	slot   uint64
	nextID uint64
}

func newGenerator(w *workload, seed int64) *generator {
	g := &generator{w: w, rng: rand.New(rand.NewSource(seed))}
	if w.zipf {
		g.zipf = rand.NewZipf(g.rng, 1.01, 1, uint64(w.keys-1))
	}
	return g
}

// keyOf maps a popularity rank to a key; 7919 is prime to every key-space
// size used, so the mapping is a bijection that scatters hot keys.
func (g *generator) keyOf(rank uint64) string {
	return fmt.Sprintf("key-%011d", rank*7919%uint64(g.w.keys))
}

func (g *generator) next() op {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.slot++
	if g.slot%probeEvery == probeEvery/2 {
		return op{kind: opStatus, seq: g.slot}
	}
	var rank uint64
	if g.zipf != nil {
		rank = g.zipf.Uint64()
	} else {
		rank = uint64(g.rng.Intn(g.w.keys))
	}
	if g.rng.Float64() < g.w.readShare {
		return op{kind: opRead, key: g.keyOf(rank), seq: g.slot}
	}
	g.nextID++
	return op{kind: opWrite, key: g.keyOf(rank), id: g.nextID, seq: g.slot}
}

// preload returns set ops for the n hottest keys.
func (g *generator) preload(n int) []op {
	g.mu.Lock()
	defer g.mu.Unlock()
	ops := make([]op, 0, n)
	for r := 0; r < n && r < g.w.keys; r++ {
		g.nextID++
		ops = append(ops, op{kind: opWrite, key: g.keyOf(uint64(r)), id: g.nextID})
	}
	return ops
}

// value is the payload of write id: the id, then filler derived from it,
// so a read can tell exactly which write it observed.
func value(id uint64, size int) []byte {
	v := make([]byte, max(size, 8))
	binary.BigEndian.PutUint64(v, id)
	for i := 8; i < len(v); i++ {
		v[i] = byte(id*31 + uint64(i))
	}
	return v
}

// history checks reads against acknowledged writes. A read must return a
// write that could be linearized at or after every write to the key that
// was acknowledged before the read was sent: the returned write w is
// stale iff some write w2, acknowledged before the read, started after w
// was acknowledged. Registration times are taken before a send and after
// its reply, so the check never flags a correct read.
type history struct {
	mu     sync.Mutex
	epoch  time.Time
	size   int
	writes map[uint64]*wrec
	floor  map[string]int64 // key → latest start among its acknowledged writes
	bad    []string
	nbad   int
}

type wrec struct {
	key   string
	start int64
	ack   int64 // 0 while unacknowledged or after a failure (outcome unknown)
}

func newHistory(epoch time.Time, size int) *history {
	return &history{epoch: epoch, size: size, writes: make(map[uint64]*wrec), floor: make(map[string]int64)}
}

func (h *history) now() int64 { return int64(time.Since(h.epoch)) }

func (h *history) violation(format string, args ...any) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.nbad++
	if len(h.bad) < 20 {
		h.bad = append(h.bad, fmt.Sprintf(format, args...))
	}
}

func (h *history) beginWrite(id uint64, key string) {
	h.mu.Lock()
	h.writes[id] = &wrec{key: key, start: h.now()}
	h.mu.Unlock()
}

func (h *history) ackWrite(id uint64) {
	h.mu.Lock()
	w := h.writes[id]
	w.ack = h.now()
	if w.start > h.floor[w.key] {
		h.floor[w.key] = w.start
	}
	h.mu.Unlock()
}

func (h *history) readFloor(key string) int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.floor[key]
}

// keys returns every key written so far.
func (h *history) keys() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	seen := make(map[string]bool)
	var out []string
	for _, w := range h.writes {
		if !seen[w.key] {
			seen[w.key] = true
			out = append(out, w.key)
		}
	}
	return out
}

// checkRead validates a hashdb get response for key against the floor
// taken before the read was sent.
func (h *history) checkRead(key string, floor int64, resp []byte) {
	d := wire.NewDecoder(resp)
	found := d.Bool()
	v := d.BytesVal()
	if d.Err() != nil {
		h.violation("read %s: malformed response %x", key, resp)
		return
	}
	if !found {
		if floor > 0 {
			h.violation("read %s: not found after an acknowledged write", key)
		}
		return
	}
	if len(v) < 8 {
		h.violation("read %s: %d-byte value", key, len(v))
		return
	}
	id := binary.BigEndian.Uint64(v)
	h.mu.Lock()
	var w wrec
	if p := h.writes[id]; p != nil {
		w = *p
	}
	h.mu.Unlock()
	switch {
	case w.key != key:
		h.violation("read %s: value of write %d, which never wrote this key", key, id)
	case !bytes.Equal(v, value(id, h.size)):
		h.violation("read %s: corrupt value of write %d", key, id)
	case w.ack != 0 && w.ack < floor:
		h.violation("read %s: stale value of write %d (acknowledged at %dns, a later write started at %dns)",
			key, id, w.ack, floor)
	}
}

// conn is one load connection: a server.Client bound to the group.
type conn struct {
	cl      *server.Client
	primary int
	h       *history
	tr      *tracer // nil when untraced
}

// do runs o and reports whether it failed (an error or refusal; the
// outcome of a failed write is unknown). Wrong answers are recorded as
// violations.
func (c *conn) do(o op) (failed bool) {
	switch o.kind {
	case opWrite:
		c.h.beginWrite(o.id, o.key)
		resp, err := c.cl.Do(hashdb.SetReq(o.key, value(o.id, c.h.size)))
		if err != nil {
			return true
		}
		if len(resp) != 1 || resp[0] != 1 {
			c.h.violation("write %s: response %x", o.key, resp)
			return false
		}
		c.h.ackWrite(o.id)
	case opRead:
		floor := c.h.readFloor(o.key)
		resp, err := c.cl.QueryLevel(readpath.Linearizable, hashdb.GetReq(o.key))
		if err != nil {
			return true
		}
		c.h.checkRead(o.key, floor, resp)
	case opStatus:
		if _, err := c.cl.Status(c.primary); err != nil {
			return true
		}
	}
	return false
}

// exec runs o and returns its result, recording a client span when
// tracing.
func (c *conn) exec(o op, now func() int64) result {
	r := result{kind: o.kind, id: o.id, due: o.due, lag: o.lag, sent: now()}
	if r.due == 0 {
		r.due = r.sent
	}
	r.traced = c.tr != nil && c.tr.on.Load()
	r.failed = c.do(o)
	r.done = now()
	if c.tr != nil {
		name := [...]string{spWrite, spRead, spStatus}[o.kind]
		c.tr.record(span{Name: name, Replica: -1, Op: o.id, Seq: o.seq, Start: r.sent, End: r.done, Wait: r.sent - r.due})
	}
	return r
}

// openResult is the open-loop phase's outcome.
type openResult struct {
	results []result
	offered int
	behind  string // why completed ops fell behind offered ones, if they did
}

// openLoop offers ops at a fixed rate for dur. Ops enter one shared queue
// when due and any idle connection takes the next one, so each op is
// timed from when it was due, including the wait for a free connection.
// at, if set, runs once at the phase's midpoint.
func openLoop(conns []*conn, g *generator, rate float64, dur time.Duration, now func() int64, tr *tracer, at func()) openResult {
	total := int(rate * dur.Seconds())
	queue := make(chan op, total+1) // room for every op of the phase: offering never blocks
	var offered, completed atomic.Int64
	out := make([][]result, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for o := range queue {
				out[i] = append(out[i], c.exec(o, now))
				completed.Add(1)
			}
		}()
	}
	stop := make(chan struct{})
	var aux sync.WaitGroup
	var samples []int64 // offered − completed, every 50 ms
	aux.Add(1)
	go func() { // backlog sampler
		defer aux.Done()
		t := time.NewTicker(50 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				samples = append(samples, offered.Load()-completed.Load())
			}
		}
	}()
	t0 := now()
	if tr != nil {
		aux.Add(1)
		go func() { // alternate untraced and traced quarters
			defer aux.Done()
			t := time.NewTicker(dur / 4)
			defer t.Stop()
			for {
				select {
				case <-stop:
					tr.on.Store(false)
					return
				case <-t.C:
					tr.on.Store(!tr.on.Load())
				}
			}
		}()
	}
	if at != nil {
		aux.Add(1)
		go func() {
			defer aux.Done()
			select {
			case <-stop:
			case <-time.After(dur / 2):
				at()
			}
		}()
	}
	interval := float64(time.Second) / rate
	for k := 0; k < total; k++ {
		due := t0 + int64(float64(k)*interval)
		sleepUntil(due, now)
		o := g.next()
		o.due = due
		o.lag = now() - due
		offered.Add(1)
		queue <- o
	}
	close(stop) // the backlog is judged over the offering window only
	close(queue)
	wg.Wait()
	aux.Wait()

	res := openResult{offered: total, behind: backlogGrowth(samples, rate)}
	for _, rs := range out {
		res.results = append(res.results, rs...)
	}
	return res
}

// sleepUntil blocks until now() reaches t. It sleeps in nanosleep rather
// than on a Go timer: the runtime wakes timers on a ~1 ms grid (time.Sleep
// of 100 µs returns after ~1.1 ms on Linux), which at these rates would
// make generator lag most of a read's latency. An early return (a signal)
// just sleeps again.
func sleepUntil(t int64, now func() int64) {
	for d := t - now(); d > 0; d = t - now() {
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR is handled by the loop
	}
}

// backlogGrowth reports whether the backlog grew over the segment: the
// mean over its last third exceeds the first third's by more than 100 ms
// of offered load. A stall shorter than that is queueing, not a system
// that fell behind its offered load.
func backlogGrowth(s []int64, rate float64) string {
	if len(s) < 6 {
		return ""
	}
	third := len(s) / 3
	mean := func(xs []int64) float64 {
		var sum float64
		for _, x := range xs {
			sum += float64(x)
		}
		return sum / float64(len(xs))
	}
	first, last := mean(s[:third]), mean(s[len(s)-third:])
	if last > first+rate*0.1 {
		return fmt.Sprintf("backlog grew from %.1f to %.1f ops (limit +%.1f): completed ops fell behind offered", first, last, rate*0.1)
	}
	return ""
}

// closedLoop runs every connection back to back for dur and returns the
// results of ops sent within it.
func closedLoop(conns []*conn, g *generator, dur time.Duration, now func() int64) []result {
	end := now() + int64(dur)
	out := make([][]result, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for now() < end {
				out[i] = append(out[i], c.exec(g.next(), now))
			}
		}()
	}
	wg.Wait()
	var all []result
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}

// runOps runs ops split across the connections, closed loop.
func runOps(conns []*conn, ops []op, now func() int64) []result {
	out := make([][]result, len(conns))
	var wg sync.WaitGroup
	for i, c := range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := i; j < len(ops); j += len(conns) {
				out[i] = append(out[i], c.exec(ops[j], now))
			}
		}()
	}
	wg.Wait()
	var all []result
	for _, rs := range out {
		all = append(all, rs...)
	}
	return all
}
