package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rex/internal/apps/hashdb"
	"rex/internal/core"
	"rex/internal/obs"
	"rex/internal/server"
)

type runConfig struct {
	seed    int64
	seconds int
	traced  bool
	conns   int
	dir     string
}

// group is a booted, elected and preloaded cluster with its load
// connections.
type group struct {
	c       *cluster
	primary int
	conns   []*conn
	g       *generator
	h       *history
}

func (gr *group) close() {
	for _, cn := range gr.conns {
		cn.cl.Close()
	}
	gr.c.stop()
}

// setup boots a fresh cluster, waits for the election and preloads the
// workload's hottest keys: everything up to the first measured op.
func setup(w *workload, rc runConfig, tr *tracer, now func() int64, h *history) (*group, error) {
	dir, err := runDir(rc.dir, "run-")
	if err != nil {
		return nil, err
	}
	c, err := startCluster(dir, tr)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	gr := &group{c: c, g: newGenerator(w, rc.seed), h: h}
	primary, err := c.waitPrimary(10 * time.Second)
	if err != nil {
		gr.close()
		return nil, err
	}
	gr.primary = primary
	for i := 0; i < rc.conns; i++ {
		gr.conns = append(gr.conns, &conn{
			cl: server.NewClient(uint64(1000+i), c.clients), primary: primary, h: gr.h, tr: tr,
		})
	}
	// Preload; right after an election a write can fail while the new
	// primary finishes promotion, so failed preload writes are retried.
	pending := gr.g.preload(preload)
	deadline := time.Now().Add(20 * time.Second)
	for len(pending) > 0 {
		if time.Now().After(deadline) {
			gr.close()
			return nil, fmt.Errorf("preload: %d writes still failing", len(pending))
		}
		res := runOps(gr.conns, pending, now)
		byID := make(map[uint64]bool)
		for _, r := range res {
			if r.failed {
				byID[r.id] = true
			}
		}
		var again []op
		for _, o := range pending {
			if byID[o.id] {
				again = append(again, o)
			}
		}
		pending = again
	}
	return gr, nil
}

// point is the state of every layer counter at one instant.
type point struct {
	regs   []obs.Snapshot
	stats  []core.Stats
	ctr    counts
	chosen uint64
}

func (gr *group) point(tr *tracer) point {
	p := point{chosen: gr.c.nodes[gr.primary].rep.Health().ChosenSeq}
	for _, n := range gr.c.nodes {
		p.regs = append(p.regs, n.reg.Snapshot())
		p.stats = append(p.stats, n.rep.Stats())
	}
	if tr != nil {
		p.ctr = tr.counts()
	}
	return p
}

// heapSampler records the peak heap while it is on: the open-loop
// segments, whose fixed offered load makes the retained state between
// checkpoints the same from run to run.
type heapSampler struct {
	on   atomic.Bool
	stop chan struct{}
	wg   sync.WaitGroup

	peak     uint64 // heap in use: live and unswept objects plus unused span bytes
	peakLive uint64 // live heap as marked by the last GC
}

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/gc/heap/live:bytes"},
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(20 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
			}
			if !s.on.Load() {
				continue
			}
			metrics.Read(samples)
			s.peak = max(s.peak, samples[0].Value.Uint64()+samples[1].Value.Uint64())
			s.peakLive = max(s.peakLive, samples[2].Value.Uint64())
		}
	}()
	return s
}

func (s *heapSampler) finish() {
	close(s.stop)
	s.wg.Wait()
}

// measured is everything one run observed, before it is reduced to
// metrics.
type measured struct {
	w        *workload
	rc       runConfig
	primary  int
	setups   []float64
	opens    []openResult // one per cycle
	peaks    []peakResult // one per cycle
	openDur  time.Duration
	peakDur  time.Duration
	verify   []result
	before   point
	mid      point // end of the last cycle
	end      point // end of verification
	heap     *heapSampler
	ckptErr  error
	chosenB  uint64 // bytes of chosen values retained for the measured instances
	chosenN  uint64 // how many measured instances were retained
	spans    []span
	spanFile string
	tr       *tracer
	h        *history
	notes    []string
}

// peakResult is one closed-loop segment.
type peakResult struct {
	start   int64
	dur     time.Duration
	results []result
}

// cycles is how many open-loop/closed-loop segment pairs a run measures.
// Each reported figure is the median over the cycles, so an episode of
// machine noise that spans less than half the run does not move it.
const cycles = 7

func (m *measured) openResults() []result {
	var out []result
	for _, o := range m.opens {
		out = append(out, o.results...)
	}
	return out
}

func (m *measured) peakResults() []result {
	var out []result
	for _, p := range m.peaks {
		out = append(out, p.results...)
	}
	return out
}

func runWorkload(w *workload, rc runConfig) (*runResult, error) {
	epoch := time.Now()
	now := func() int64 { return int64(time.Since(epoch)) }
	var tr *tracer
	if rc.traced {
		tr = newTracer(epoch)
	}
	m := &measured{w: w, rc: rc, tr: tr}
	m.openDur = time.Duration(rc.seconds) * time.Second * 2 / 3
	m.peakDur = time.Duration(rc.seconds)*time.Second - m.openDur

	// Set up several times and keep the last group; setup_s is the median.
	var gr *group
	for i := 0; i < setupReps; i++ {
		if gr != nil {
			gr.close()
		}
		t := time.Now()
		var err error
		gr, err = setup(w, rc, tr, now, newHistory(epoch, w.valueSize))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		m.setups = append(m.setups, time.Since(t).Seconds())
	}
	defer gr.close()
	m.h = gr.h
	m.primary = gr.primary

	heap := startHeapSampler()
	m.before = gr.point(tr)
	primary := gr.c.nodes[gr.primary].rep
	for i := 0; i < cycles; i++ {
		// One checkpoint in the middle of the run, so every run covers the
		// checkpoint path (pause, snapshot write and save) at the same offset.
		var at func()
		if i == cycles/2 {
			at = func() { m.ckptErr = primary.Checkpoint() }
		}
		heap.on.Store(true)
		m.opens = append(m.opens, openLoop(gr.conns, gr.g, w.rate, m.openDur/cycles, now, tr, at))
		heap.on.Store(false)
		p := peakResult{start: now(), dur: m.peakDur / cycles}
		p.results = closedLoop(gr.conns, gr.g, p.dur, now)
		m.peaks = append(m.peaks, p)
	}
	heap.finish()
	m.heap = heap
	m.mid = gr.point(tr)
	base, vals := primary.ChosenLog()
	for i, v := range vals {
		if inst := base + uint64(i); inst >= m.before.chosen && inst < m.mid.chosen {
			m.chosenB += uint64(len(v))
			m.chosenN++
		}
	}

	// Verification: every replica applies the whole log, every touched key
	// reads back (linearizably, through the clients) as its latest write,
	// and all replicas hold the same value for it.
	if err := gr.c.quiesce(gr.primary, 20*time.Second); err != nil {
		return nil, err
	}
	keys := gr.h.keys()
	sort.Strings(keys)
	reads := make([]op, len(keys))
	for i, k := range keys {
		reads[i] = op{kind: opRead, key: k}
	}
	m.verify = runOps(gr.conns, reads, now)
	compareReplicas(gr, keys)
	m.end = gr.point(tr)

	if tr != nil {
		m.spans = tr.snapshot()
		m.spanFile = filepath.Join(rc.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, rc.seed))
		if err := tr.writeSpans(m.spanFile); err != nil {
			m.notes = append(m.notes, fmt.Sprintf("span file not written: %v", err))
		}
	}
	return m.result(), nil
}

// compareReplicas checks that every replica holds the same value for each
// key. A secondary may still be replaying the tail when quiesce returns,
// so a mismatch is re-read for up to a few seconds before it counts.
func compareReplicas(gr *group, keys []string) {
	deadline := time.Now().Add(5 * time.Second)
	for _, k := range keys {
		q := hashdb.GetReq(k)
		for {
			diff := ""
			var first []byte
			for i, n := range gr.c.nodes {
				v, err := n.rep.Query(q)
				if err != nil {
					diff = fmt.Sprintf("replica %d: %v", i, err)
					break
				}
				if i == 0 {
					first = v
				} else if string(v) != string(first) {
					diff = fmt.Sprintf("replica %d holds %x, replica 0 holds %x", i, trunc(v), trunc(first))
					break
				}
			}
			if diff == "" {
				break
			}
			if time.Now().After(deadline) {
				gr.h.violation("replicas disagree on %s: %s", k, diff)
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

func trunc(b []byte) []byte {
	if len(b) > 16 {
		return b[:16]
	}
	return b
}
