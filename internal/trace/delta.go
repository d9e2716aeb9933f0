package trace

import (
	"errors"
	"fmt"

	"rex/internal/wire"
)

// Delta is the unit of agreement: the trace growth a primary proposes on
// top of the previously committed trace (§3.1 — "a proposal to a new
// instance can contain not the full trace, but only the additional
// information on top of the committed trace in the previous instance").
type Delta struct {
	// Rebase, when non-nil, instructs the receiver to truncate its trace to
	// this cut before applying the delta. A new primary issues exactly one
	// rebasing delta after takeover to discard the residue beyond the last
	// consistent cut (§3.2).
	Rebase Cut
	// Base is the expected per-thread frontier (after any rebase) that this
	// delta extends; a mismatch means a protocol bug and fails Apply.
	Base Cut
	// ReqBase is the expected length of the request table before applying.
	ReqBase uint64
	// Threads holds the appended events per logical thread.
	Threads []ThreadLog
	// Reqs are the request payloads appended by this delta.
	Reqs []Req
	// Marks are checkpoint marks appended by this delta.
	Marks []Mark
}

// ErrBaseMismatch reports that a delta does not extend the trace it was
// applied to.
var ErrBaseMismatch = errors.New("trace: delta base mismatch")

// EventCount returns the number of events the delta appends.
func (d *Delta) EventCount() int {
	n := 0
	for i := range d.Threads {
		n += len(d.Threads[i].Events)
	}
	return n
}

// EdgeCount returns the number of causal edges the delta appends.
func (d *Delta) EdgeCount() int {
	n := 0
	for i := range d.Threads {
		for _, in := range d.Threads[i].In {
			n += len(in)
		}
	}
	return n
}

// Empty reports whether the delta appends nothing and carries no rebase.
func (d *Delta) Empty() bool {
	return d.Rebase == nil && d.EventCount() == 0 && len(d.Reqs) == 0 && len(d.Marks) == 0
}

// Apply extends tr by d, performing the rebase truncation first if present.
//
// A rebase cut outside the locally available window (beyond the frontier or
// inside the collected prefix) yields ErrCutBeyondTrace: the local trace has
// desynchronized from the committed stream and the replica must re-sync from
// a checkpoint. Other base disagreements yield ErrBaseMismatch (a protocol
// bug).
func (tr *Trace) Apply(d *Delta) error {
	if d.Rebase != nil {
		cur := tr.Cut()
		if !cur.AtLeast(d.Rebase) {
			return fmt.Errorf("%w: rebase cut %v beyond local trace %v", ErrCutBeyondTrace, d.Rebase, cur)
		}
		if err := tr.TruncateTo(d.Rebase); err != nil {
			return err
		}
	}
	if len(d.Threads) != len(tr.Threads) {
		return fmt.Errorf("%w: delta has %d threads, trace has %d", ErrBaseMismatch, len(d.Threads), len(tr.Threads))
	}
	if cur := tr.Cut(); !cur.Equal(d.Base) {
		return fmt.Errorf("%w: delta base %v, trace frontier %v", ErrBaseMismatch, d.Base, cur)
	}
	if have := tr.ReqsBase + uint64(len(tr.Reqs)); have != d.ReqBase {
		return fmt.Errorf("%w: delta req base %d, trace has %d reqs", ErrBaseMismatch, d.ReqBase, have)
	}
	for t := range d.Threads {
		tr.Threads[t].Events = append(tr.Threads[t].Events, d.Threads[t].Events...)
		tr.Threads[t].In = append(tr.Threads[t].In, d.Threads[t].In...)
	}
	tr.Reqs = append(tr.Reqs, d.Reqs...)
	tr.Marks = append(tr.Marks, d.Marks...)
	return nil
}

// deltaVersion 2 added the compact conflict-class table; version 1 deltas
// (no classes: every request is catch-all) still decode.
const (
	deltaVersion   = 2
	deltaVersionV1 = 1
)

func encodeCut(e *wire.Encoder, c Cut) {
	e.Uvarint(uint64(len(c)))
	for _, v := range c {
		e.Uvarint(uint64(v))
	}
}

// decodeCut reads a cut. Every entry takes at least one byte, so a count
// beyond the unread input is corruption and is rejected before allocating.
func decodeCut(d *wire.Decoder) (Cut, error) {
	n := d.Uvarint()
	if d.Err() != nil {
		return nil, d.Err()
	}
	if n > uint64(d.Remaining()) {
		return nil, wire.ErrCorrupt
	}
	c := make(Cut, n)
	for i := range c {
		c[i] = int32(d.Uvarint())
	}
	return c, d.Err()
}

// The smallest encodings of the counted items, one byte per field: an
// event (kind, Res, Arg, in-edge count), an in-edge (thread, clock), a
// request (client, seq, body length; version 2 adds the class index) and
// a mark (id, cut length).
const (
	minEventBytes = 4
	minEdgeBytes  = 2
	minReqBytes   = 3
	minMarkBytes  = 2
)

// Encode appends the wire form of d to e. The encoding is the Paxos
// proposal value and the WAL record body; it averages roughly 16 bytes per
// synchronization event plus request payloads, matching §6.3.
func (d *Delta) Encode(e *wire.Encoder) {
	e.Byte(deltaVersion)
	e.Bool(d.Rebase != nil)
	if d.Rebase != nil {
		encodeCut(e, d.Rebase)
	}
	encodeCut(e, d.Base)
	e.Uvarint(d.ReqBase)
	e.Uvarint(uint64(len(d.Threads)))
	for t := range d.Threads {
		l := &d.Threads[t]
		e.Uvarint(uint64(len(l.Events)))
		for i, ev := range l.Events {
			e.Byte(byte(ev.Kind))
			e.Uvarint(uint64(ev.Res))
			e.Uvarint(ev.Arg)
			in := l.In[i]
			e.Uvarint(uint64(len(in)))
			for _, src := range in {
				e.Uvarint(uint64(src.Thread))
				e.Uvarint(uint64(src.Clock))
			}
		}
	}
	e.Uvarint(uint64(len(d.Reqs)))
	// Compact conflict-class table: each distinct non-zero class id is
	// listed once, and each request carries a 1-based uvarint index into
	// the table (0 = the catch-all class). A delta dominated by a few hot
	// classes pays ~1 byte per request instead of re-encoding the id.
	var classes []uint32
	for _, r := range d.Reqs {
		if r.Class == 0 {
			continue
		}
		seen := false
		for _, c := range classes {
			if c == r.Class {
				seen = true
				break
			}
		}
		if !seen {
			classes = append(classes, r.Class)
		}
	}
	e.Uvarint(uint64(len(classes)))
	for _, c := range classes {
		e.Uvarint(uint64(c))
	}
	for _, r := range d.Reqs {
		e.Uvarint(r.Client)
		e.Uvarint(r.Seq)
		idx := uint64(0)
		for i, c := range classes {
			if c == r.Class {
				idx = uint64(i + 1)
				break
			}
		}
		e.Uvarint(idx)
		e.BytesVal(r.Body)
	}
	e.Uvarint(uint64(len(d.Marks)))
	for _, m := range d.Marks {
		e.Uvarint(m.ID)
		encodeCut(e, m.Cut)
	}
}

// EncodeBytes returns the wire form of d.
func (d *Delta) EncodeBytes() []byte {
	return d.EncodeBytesHint(0)
}

// EncodeBytesHint returns the wire form of d, encoding through a pooled
// scratch buffer pre-sized to sizeHint (callers pass the previous delta's
// encoded size). The returned slice is exact-length and owned by the
// caller; steady state costs one allocation (the copy), not the O(log n)
// growth reallocations of a cold encoder.
func (d *Delta) EncodeBytesHint(sizeHint int) []byte {
	e := wire.GetEncoder(sizeHint)
	d.Encode(e)
	out := e.AppendCopy(make([]byte, 0, e.Len()))
	e.Release()
	return out
}

// DecodeDelta parses a delta from dec. Every count is checked against the
// unread input before anything is allocated for it, so a corrupt WAL
// record or Paxos value costs at most memory proportional to its length.
func DecodeDelta(dec *wire.Decoder) (*Delta, error) {
	v := dec.Byte()
	if dec.Err() == nil && v != deltaVersion && v != deltaVersionV1 {
		return nil, fmt.Errorf("trace: unsupported delta version %d", v)
	}
	d := &Delta{}
	var err error
	if dec.Bool() {
		if d.Rebase, err = decodeCut(dec); err != nil {
			return nil, err
		}
	}
	if d.Base, err = decodeCut(dec); err != nil {
		return nil, err
	}
	d.ReqBase = dec.Uvarint()
	nThreads := dec.Uvarint()
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	if nThreads > 1<<16 || nThreads > uint64(dec.Remaining()) {
		return nil, wire.ErrCorrupt
	}
	d.Threads = make([]ThreadLog, nThreads)
	for t := range d.Threads {
		n := dec.Uvarint()
		if dec.Err() != nil {
			return nil, dec.Err()
		}
		if n > 1<<28 || n > uint64(dec.Remaining()/minEventBytes) {
			return nil, wire.ErrCorrupt
		}
		l := &d.Threads[t]
		l.Events = make([]Event, 0, n)
		l.In = make([][]EventID, 0, n)
		for i := uint64(0); i < n; i++ {
			kind := Kind(dec.Byte())
			if dec.Err() == nil && (kind == KindInvalid || kind >= kindMax) {
				return nil, fmt.Errorf("trace: invalid event kind %d", kind)
			}
			ev := Event{Kind: kind, Res: uint32(dec.Uvarint()), Arg: dec.Uvarint()}
			nIn := dec.Uvarint()
			if dec.Err() != nil {
				return nil, dec.Err()
			}
			if nIn > 1<<20 || nIn > uint64(dec.Remaining()/minEdgeBytes) {
				return nil, wire.ErrCorrupt
			}
			var in []EventID
			for j := uint64(0); j < nIn; j++ {
				in = append(in, EventID{Thread: int32(dec.Uvarint()), Clock: int32(dec.Uvarint())})
			}
			l.Events = append(l.Events, ev)
			l.In = append(l.In, in)
		}
	}
	nReqs := dec.Uvarint()
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	if nReqs > 1<<28 || nReqs > uint64(dec.Remaining()/minReqBytes) {
		return nil, wire.ErrCorrupt
	}
	var classes []uint32
	if v == deltaVersion {
		nc := dec.Uvarint()
		if dec.Err() != nil {
			return nil, dec.Err()
		}
		if nc > 1<<20 || nc > uint64(dec.Remaining()) {
			return nil, wire.ErrCorrupt
		}
		classes = make([]uint32, nc)
		for i := range classes {
			classes[i] = uint32(dec.Uvarint())
		}
	}
	for i := uint64(0); i < nReqs; i++ {
		r := Req{Client: dec.Uvarint(), Seq: dec.Uvarint()}
		if v == deltaVersion {
			ci := dec.Uvarint()
			if ci > 0 {
				if ci > uint64(len(classes)) {
					return nil, wire.ErrCorrupt
				}
				r.Class = classes[ci-1]
			}
		}
		r.Body = append([]byte(nil), dec.BytesVal()...)
		d.Reqs = append(d.Reqs, r)
	}
	nMarks := dec.Uvarint()
	if dec.Err() != nil {
		return nil, dec.Err()
	}
	if nMarks > 1<<20 || nMarks > uint64(dec.Remaining()/minMarkBytes) {
		return nil, wire.ErrCorrupt
	}
	for i := uint64(0); i < nMarks; i++ {
		m := Mark{ID: dec.Uvarint()}
		if m.Cut, err = decodeCut(dec); err != nil {
			return nil, err
		}
		d.Marks = append(d.Marks, m)
	}
	return d, dec.Err()
}

// DecodeDeltaBytes parses a delta from buf.
func DecodeDeltaBytes(buf []byte) (*Delta, error) {
	return DecodeDelta(wire.NewDecoder(buf))
}
