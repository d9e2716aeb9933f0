package main

import (
	"io"
	"testing"
	"time"

	"rex/internal/core"
)

type fakeSM struct{}

func (fakeSM) Apply(*core.Ctx, []byte) []byte  { return []byte("apply") }
func (fakeSM) WriteCheckpoint(io.Writer) error { return nil }
func (fakeSM) ReadCheckpoint(io.Reader) error  { return nil }

type fakeQH struct{}

func (fakeQH) Query(*core.Ctx, []byte) []byte { return []byte("query") }

type fakeQC struct{}

func (fakeQC) ClassifyQuery([]byte) core.QueryClass { return core.QueryFollowerOK }

type fakeCC struct{}

func (fakeCC) ClassifyConflict([]byte) core.ConflictClass { return 7 }

type fakeRS struct{}

func (fakeRS) ExportRange(*core.Ctx, uint64, uint64) []byte { return nil }
func (fakeRS) ImportRange(*core.Ctx, []byte)                {}
func (fakeRS) DropRange(*core.Ctx, uint64, uint64)          {}

// optional returns which of the interfaces core type-asserts sm has, in
// wrapSM's bit order.
func optional(sm core.StateMachine) int {
	_, qh := sm.(core.QueryHandler)
	_, qc := sm.(core.QueryClassifier)
	_, cc := sm.(core.ConflictClassifier)
	_, rs := sm.(core.RangeStateMachine)
	return bits(qh, qc, cc, rs)
}

// TestWrapSMPreservesOptionalInterfaces checks every combination: the
// wrapped state machine implements exactly the optional interfaces of the
// unwrapped one, and the wrapped methods still reach the inner ones.
func TestWrapSMPreservesOptionalInterfaces(t *testing.T) {
	inners := []core.StateMachine{
		fakeSM{},
		struct {
			fakeSM
			fakeRS
		}{},
		struct {
			fakeSM
			fakeCC
		}{},
		struct {
			fakeSM
			fakeCC
			fakeRS
		}{},
		struct {
			fakeSM
			fakeQC
		}{},
		struct {
			fakeSM
			fakeQC
			fakeRS
		}{},
		struct {
			fakeSM
			fakeQC
			fakeCC
		}{},
		struct {
			fakeSM
			fakeQC
			fakeCC
			fakeRS
		}{},
		struct {
			fakeSM
			fakeQH
		}{},
		struct {
			fakeSM
			fakeQH
			fakeRS
		}{},
		struct {
			fakeSM
			fakeQH
			fakeCC
		}{},
		struct {
			fakeSM
			fakeQH
			fakeCC
			fakeRS
		}{},
		struct {
			fakeSM
			fakeQH
			fakeQC
		}{},
		struct {
			fakeSM
			fakeQH
			fakeQC
			fakeRS
		}{},
		struct {
			fakeSM
			fakeQH
			fakeQC
			fakeCC
		}{},
		struct {
			fakeSM
			fakeQH
			fakeQC
			fakeCC
			fakeRS
		}{},
	}
	for mask, inner := range inners {
		if got := optional(inner); got != mask {
			t.Fatalf("fake %d implements %04b", mask, got)
		}
		tr := newTracer(time.Now())
		tr.on.Store(true)
		w := wrapSM(&smWrap{inner: inner, tr: tr})
		if got := optional(w); got != mask {
			t.Errorf("inner implements %04b, wrapped implements %04b", mask, got)
		}
		if qh, ok := w.(core.QueryHandler); ok {
			if string(qh.Query(nil, nil)) != "query" || tr.counts()[cQueries] != 1 {
				t.Errorf("mask %04b: wrapped Query did not reach the inner handler through the timer", mask)
			}
		}
		if cc, ok := w.(core.ConflictClassifier); ok && cc.ClassifyConflict(nil) != 7 {
			t.Errorf("mask %04b: ClassifyConflict not delegated", mask)
		}
		if qc, ok := w.(core.QueryClassifier); ok && qc.ClassifyQuery(nil) != core.QueryFollowerOK {
			t.Errorf("mask %04b: ClassifyQuery not delegated", mask)
		}
	}
}

// TestTracedRunKeepsLeaseReadsAndElision runs the same seed untraced and
// traced on a real cluster: both must serve linearizable reads from the
// lease and elide class-owned lock events, so the wrappers change only
// timing, not how the replica serves reads or records its trace.
func TestTracedRunKeepsLeaseReadsAndElision(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a real TCP cluster with fsync")
	}
	w := &workload{name: "test", readShare: 0.5, valueSize: 100, keys: 1000, zipf: true, rate: 300}
	for _, traced := range []bool{false, true} {
		epoch := time.Now()
		now := func() int64 { return int64(time.Since(epoch)) }
		var tr *tracer
		if traced {
			tr = newTracer(epoch)
		}
		rc := runConfig{seed: 1, seconds: 1, traced: traced, conns: 2, dir: t.TempDir()}
		gr, err := setup(w, rc, tr, now, newHistory(epoch, w.valueSize))
		if err != nil {
			t.Fatalf("traced=%v: set-up: %v", traced, err)
		}
		res := openLoop(gr.conns, gr.g, w.rate, time.Second, now, tr, nil)
		p := gr.c.nodes[gr.primary]
		lease := p.reg.Snapshot().Counter("rex_lease_reads_total")
		elided := p.rep.Stats().ElidedOps
		gr.close()
		if lease == 0 || elided == 0 {
			t.Errorf("traced=%v: lease reads %d, elided ops %d; want both > 0", traced, lease, elided)
		}
		if gr.h.nbad > 0 {
			t.Errorf("traced=%v: %d violations: %v", traced, gr.h.nbad, gr.h.bad)
		}
		for _, r := range res.results {
			if r.failed {
				t.Errorf("traced=%v: an op failed", traced)
				break
			}
		}
		if traced && (tr.counts()[cQueries] == 0 || tr.counts()[cApplyReplay] == 0) {
			t.Errorf("traced run: wrapped Query calls %d, replayed applies %d; want both > 0",
				tr.counts()[cQueries], tr.counts()[cApplyReplay])
		}
	}
}
