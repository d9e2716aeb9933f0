package main

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"rex/internal/obs"
)

// metric is one reported figure with the number of samples behind it.
type metric struct {
	name  string
	unit  string
	value float64
	n     int
}

type runResult struct {
	metrics    []metric
	attempted  int
	failed     int
	violations []string
	nviol      int
	invalid    string
	lines      []string // human-readable detail printed before the result
}

func (r *runResult) ok() bool { return r.nviol == 0 && r.invalid == "" }

func (r *runResult) print() {
	for _, l := range r.lines {
		fmt.Println(l)
	}
	for _, m := range r.metrics {
		fmt.Printf("metric %-36s %14.4f %-8s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	fmt.Printf("ops attempted=%d failed=%d error_ratio=%.6f\n", r.attempted, r.failed, ratio(float64(r.failed), float64(r.attempted)))
	if r.invalid != "" {
		fmt.Printf("INVALID open-loop run: %s\n", r.invalid)
	}
	if r.nviol > 0 {
		fmt.Printf("CORRECTNESS VIOLATIONS: %d\n", r.nviol)
		for _, v := range r.violations {
			fmt.Printf("  %s\n", v)
		}
	}
}

// summary is the result line: exactly correct, attempted, failed and
// metrics.
func (r *runResult) summary() map[string]any {
	ms := make(map[string]any, len(r.metrics))
	for _, m := range r.metrics {
		ms[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	return map[string]any{"correct": r.ok(), "attempted": r.attempted, "failed": r.failed, "metrics": ms}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile (nearest rank) of xs, sorting it.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[min(max(i, 0), len(xs)-1)]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

const ms = float64(time.Millisecond)

// latencies returns the latencies (due → done) in ms of results of kind
// that keep accepts; a failed op counts as infinitely late, so it misses
// any latency limit.
func latencies(rs []result, kind opKind, keep func(result) bool) []float64 {
	var out []float64
	for _, r := range rs {
		if r.kind != kind || (keep != nil && !keep(r)) {
			continue
		}
		if r.failed {
			out = append(out, math.Inf(1))
		} else {
			out = append(out, float64(r.latency())/ms)
		}
	}
	return out
}

// segQ returns the q-quantile of each segment's latencies of kind (due →
// done) and the number of samples behind them.
func segQ(segs [][]result, kind opKind, q float64) ([]float64, int) {
	var qs []float64
	n := 0
	for _, rs := range segs {
		xs := latencies(rs, kind, nil)
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
		n += len(xs)
	}
	return qs, n
}

// chunks splits rs, in order, into k nearly equal runs.
func chunks(rs []result, k int) [][]result {
	out := make([][]result, 0, k)
	for i := 0; i < k; i++ {
		out = append(out, rs[i*len(rs)/k:(i+1)*len(rs)/k])
	}
	return out
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

// result reduces what the run measured to its metrics.
func (m *measured) result() *runResult {
	r := &runResult{nviol: m.h.nbad, violations: m.h.bad}
	all := append(append(m.openResults(), m.peakResults()...), m.verify...)
	r.attempted = len(all)
	for _, x := range all {
		if x.failed {
			r.failed++
		}
	}
	// A segment whose backlog grew ran above the system's capacity; the
	// run is invalid when that is true of most segments, because every
	// figure is a median over the segments.
	behind := 0
	for i, o := range m.opens {
		if o.behind != "" {
			behind++
			r.lines = append(r.lines, fmt.Sprintf("warning: open-loop segment %d: %s", i+1, o.behind))
		}
	}
	if 2*behind > len(m.opens) {
		r.invalid = fmt.Sprintf("%d of %d open-loop segments fell behind their offered load", behind, len(m.opens))
	}
	offered := 0
	for _, o := range m.opens {
		offered += o.offered
	}
	r.lines = append(r.lines, fmt.Sprintf("phases %d cycles of open loop (%v at %.0f ops/s) then closed loop (%v); offered %d; verify %d reads; conns %d",
		cycles, m.openDur/cycles, m.w.rate, m.peakDur/cycles, offered, len(m.verify), m.rc.conns))
	if m.ckptErr != nil {
		r.lines = append(r.lines, fmt.Sprintf("note: mid-run checkpoint: %v", m.ckptErr))
	}
	if m.tr == nil {
		m.endToEnd(r)
	} else {
		m.perLayer(r)
	}
	r.lines = append(r.lines, m.notes...)
	return r
}

func (m *measured) endToEnd(r *runResult) {
	add := func(name, unit string, v float64, n int) {
		r.metrics = append(r.metrics, metric{name, unit, v, n})
	}
	add("setup_s", "s", median(m.setups), len(m.setups))
	r.lines = append(r.lines, "setup_s per set-up: "+fmtList(m.setups))

	segs := make([][]result, len(m.opens))
	for i, o := range m.opens {
		segs[i] = o.results
	}
	open := m.openResults()
	w50, n := segQ(segs, opWrite, 0.5)
	w90, _ := segQ(segs, opWrite, 0.9)
	w99, _ := segQ(segs, opWrite, 0.99)
	add("write_p50_ms", "ms", median(w50), n)
	w := latencies(open, opWrite, nil)
	r.lines = append(r.lines, fmt.Sprintf("write p50 per segment: %s; whole run %.3f", fmtList(w50), quantile(w, 0.5)))
	// Write tails are printed, not bounded: on a shared 2-core VM they are
	// set by host scheduling and by disk stalls (a checkpoint's snapshot
	// fsync delays the WAL's) and vary several-fold between runs of the
	// same code. The traced run reports them as per-layer figures.
	r.lines = append(r.lines, fmt.Sprintf("write p90 per segment: %s; median %.3f (not bounded)", fmtList(w90), median(w90)))
	r.lines = append(r.lines, fmt.Sprintf("write p99 per segment: %s; median %.3f; whole run %.3f (n=%d, not bounded)",
		fmtList(w99), median(w99), quantile(w, 0.99), n))

	// Reads: the open-loop reads where the workload has them; otherwise
	// the verification reads (closed loop, timed from send, in cycles
	// chunks).
	rsegs := segs
	if m.w.readShare > 0 {
		r.lines = append(r.lines, "read_*: open-loop linearizable gets, timed from due")
	} else {
		rsegs = chunks(m.verify, cycles)
		r.lines = append(r.lines, "read_*: verification gets after the load (closed loop, timed from send)")
	}
	r50, rn := segQ(rsegs, opRead, 0.5)
	r90, _ := segQ(rsegs, opRead, 0.9)
	r99, _ := segQ(rsegs, opRead, 0.99)
	add("read_p50_ms", "ms", median(r50), rn)
	r.lines = append(r.lines, "read p50 per segment: "+fmtList(r50))
	// Read tails are not bounded either: on read_mostly a linearizable
	// read waits for the writes pending when it arrives, so its tail
	// follows the write latency, amplified by queueing.
	r.lines = append(r.lines, fmt.Sprintf("read p90 per segment: %s; median %.3f (not bounded)", fmtList(r90), median(r90)))
	r.lines = append(r.lines, fmt.Sprintf("read p99 per segment: %s; median %.3f (n=%d, not bounded)", fmtList(r99), median(r99), rn))

	var peak []float64
	done := 0
	for _, p := range m.peaks {
		k := 0
		for _, x := range p.results {
			if !x.failed && x.kind != opStatus {
				k++
			}
		}
		peak = append(peak, float64(k)/p.dur.Seconds())
		done += k
	}
	add("peak_ops_s", "1/s", median(peak), done)
	r.lines = append(r.lines, "peak ops/s per segment: "+fmtList(peak))

	add("heap_peak_mb", "MB", float64(m.heap.peak)/(1<<20), 1)
	r.lines = append(r.lines, fmt.Sprintf("heap: in-use peak %.2f MB, live peak %.2f MB",
		float64(m.heap.peak)/(1<<20), float64(m.heap.peakLive)/(1<<20)))

	var lags []float64
	for _, x := range open {
		lags = append(lags, float64(x.lag)/ms)
	}
	r.lines = append(r.lines, fmt.Sprintf("loadgen lag_p99_ms=%.4f (n=%d)", quantile(lags, 0.99), len(lags)))
}

// ---- registry helpers ----

func hdelta(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	b.Count -= a.Count
	b.Sum -= a.Sum
	for i := range b.Buckets {
		b.Buckets[i] -= a.Buckets[i]
	}
	return b
}

func hsum(a, b obs.HistogramSnapshot) obs.HistogramSnapshot {
	a.Count += b.Count
	a.Sum += b.Sum
	a.Max = max(a.Max, b.Max)
	for i := range a.Buckets {
		a.Buckets[i] += b.Buckets[i]
	}
	return a
}

var bounds = obs.BucketBounds()

// hquant interpolates the q-quantile linearly within its bucket.
func hquant(h obs.HistogramSnapshot, q float64) time.Duration {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	var cum float64
	for i, c := range h.Buckets {
		if c == 0 {
			continue
		}
		if cum+float64(c) >= rank {
			lo := time.Duration(0)
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := h.Max
			if i < len(bounds) {
				hi = min(bounds[i], max(h.Max, lo))
			}
			frac := (rank - cum) / float64(c)
			return lo + time.Duration(frac*float64(hi-lo))
		}
		cum += float64(c)
	}
	return h.Max
}

// hist sums the named histogram's change over [a, b] across the given
// replicas.
func hist(a, b point, name string, reps []int) obs.HistogramSnapshot {
	var out obs.HistogramSnapshot
	for _, i := range reps {
		out = hsum(out, hdelta(a.regs[i].Histogram(name), b.regs[i].Histogram(name)))
	}
	return out
}

// sizeMean returns the mean of the named size histogram's observations
// over [a, b] across the given replicas, and their number.
func sizeMean(a, b point, name string, reps []int) (float64, int) {
	var sum, n uint64
	for _, i := range reps {
		sum += b.regs[i].Size(name).Sum - a.regs[i].Size(name).Sum
		n += b.regs[i].Size(name).Count - a.regs[i].Size(name).Count
	}
	return ratio(float64(sum), float64(n)), int(n)
}

func counter(a, b point, name string, reps []int) float64 {
	var v uint64
	for _, i := range reps {
		v += b.regs[i].Counter(name) - a.regs[i].Counter(name)
	}
	return float64(v)
}

const us = float64(time.Microsecond)

func (m *measured) perLayer(r *runResult) {
	add := func(name, unit string, v float64, n int) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		r.metrics = append(r.metrics, metric{name, unit, v, n})
	}
	a, b, e := m.before, m.mid, m.end
	all := []int{0, 1, 2}
	pri := []int{m.primary}
	var secs []int
	for _, i := range all {
		if i != pri[0] {
			secs = append(secs, i)
		}
	}
	measuredOps := 0
	for _, x := range append(m.openResults(), m.peakResults()...) {
		if x.kind != opStatus && !x.failed {
			measuredOps++
		}
	}
	ops := float64(measuredOps)
	c := b.ctr.sub(a.ctr)  // open + peak
	ce := e.ctr.sub(a.ctr) // through verification (read path)
	cAll := e.ctr          // whole run, set-ups included
	open := m.openResults()

	// loadgen
	var lags, waits []float64
	for _, x := range open {
		lags = append(lags, float64(x.lag)/ms)
		if x.kind != opStatus {
			waits = append(waits, float64(x.sent-x.due)/ms)
		}
	}
	add("loadgen.lag_p99_ms", "ms", quantile(lags, 0.99), len(lags))
	add("loadgen.conn_wait_p50_ms", "ms", quantile(waits, 0.5), len(waits))
	add("loadgen.error_ratio", "ratio", ratio(float64(r.failed), float64(r.attempted)), r.attempted)
	// The unbounded tails (see endToEnd), as medians over segments.
	segs := make([][]result, len(m.opens))
	for i, o := range m.opens {
		segs[i] = o.results
	}
	w90, n := segQ(segs, opWrite, 0.9)
	w99, _ := segQ(segs, opWrite, 0.99)
	add("loadgen.write_p90_ms", "ms", median(w90), n)
	add("loadgen.write_p99_ms", "ms", median(w99), n)
	rsegs := segs
	if m.w.readShare == 0 {
		rsegs = chunks(m.verify, cycles)
	}
	r90, rn := segQ(rsegs, opRead, 0.9)
	r99, _ := segQ(rsegs, opRead, 0.99)
	add("loadgen.read_p90_ms", "ms", median(r90), rn)
	add("loadgen.read_p99_ms", "ms", median(r99), rn)

	// server
	var noop []float64
	for _, x := range append(m.openResults(), m.peakResults()...) {
		if x.kind == opStatus && !x.failed {
			noop = append(noop, float64(x.done-x.sent)/us)
		}
	}
	add("server.noop_rtt_p50_us", "us", quantile(noop, 0.5), len(noop))

	// apps
	applies := c[cApplyPrimary] + c[cApplyReplay]
	add("apps.apply_calls_primary", "count", float64(c[cApplyPrimary]), int(c[cApplyPrimary]))
	add("apps.apply_calls_replay", "count", float64(c[cApplyReplay]), int(c[cApplyReplay]))
	add("apps.apply_mean_us", "us", ratio(float64(c[cApplyNanos]), float64(applies))/us, int(applies))
	add("apps.apply_busy_s", "s", float64(c[cApplyNanos])/float64(time.Second), int(applies))
	add("apps.query_mean_us", "us", ratio(float64(ce[cQueryNanos]), float64(ce[cQueries]))/us, int(ce[cQueries]))
	add("apps.checkpoint_write_ms", "ms", ratio(float64(c[cCkptWriteNanos]), float64(c[cCkptWrites]))/ms, int(c[cCkptWrites]))

	// core (primary registry)
	// The gate observes a wait only for writes that blocked; the others
	// waited 0, which the p50 over all admitted writes counts.
	adm := hist(a, b, "rex_admission_wait_seconds", pri)
	admitted := counter(a, b, "rex_requests_admitted_total", pri)
	var admP50 time.Duration
	if unblocked := admitted - float64(adm.Count); adm.Count > 0 && unblocked < admitted/2 {
		admP50 = hquant(adm, (admitted/2-unblocked)/float64(adm.Count))
	}
	add("core.admission_wait_p50_us", "us", float64(admP50)/us, int(admitted))
	add("core.admission_waited_share", "ratio", ratio(float64(adm.Count), admitted), int(admitted))
	exec := hist(a, b, "rex_exec_latency_seconds", pri)
	add("core.exec_mean_us", "us", float64(exec.Mean())/us, int(exec.Count))
	pc := hist(a, b, "rex_propose_commit_seconds", pri)
	add("core.propose_commit_p50_us", "us", float64(hquant(pc, 0.5))/us, int(pc.Count))
	p := pri[0]
	deltas := b.regs[p].Size("rex_delta_bytes").Count - a.regs[p].Size("rex_delta_bytes").Count
	reqs := b.stats[p].ReqsCommitted - a.stats[p].ReqsCommitted
	add("core.reqs_per_commit", "count", ratio(float64(reqs), float64(deltas)), int(deltas))
	lease := counter(a, e, "rex_lease_reads_total", pri)
	confirm := counter(a, e, "rex_lease_confirm_reads_total", pri)
	add("core.lease_read_ratio", "ratio", ratio(lease, lease+confirm), int(lease+confirm))
	cp := hist(a, b, "rex_checkpoint_pause_seconds", pri)
	add("core.checkpoint_pause_ms", "ms", float64(cp.Mean())/ms, int(cp.Count))
	promo := b.regs[p].Histogram("rex_promotion_seconds")
	add("core.promotion_ms", "ms", float64(promo.Mean())/ms, int(promo.Count))

	// sched (secondaries)
	rw := hist(a, b, "rex_replay_wait_seconds", secs)
	add("sched.replay_wait_mean_us", "us", float64(rw.Mean())/us, int(rw.Count))
	lag := hist(a, b, "rex_replay_commit_lag_seconds", secs)
	add("sched.replay_lag_p99_ms", "ms", float64(hquant(lag, 0.99))/ms, int(lag.Count))

	// trace
	dbytes, nd := sizeMean(a, b, "rex_delta_bytes", pri)
	devents, _ := sizeMean(a, b, "rex_delta_events", pri)
	add("trace.delta_bytes_mean", "B", dbytes, nd)
	add("trace.delta_events_mean", "count", devents, nd)
	inst := float64(b.chosen - a.chosen)
	add("trace.chosen_bytes_per_op", "B", ratio(float64(m.chosenB), float64(m.chosenN))*ratio(inst, ops), int(m.chosenN))

	// paxos
	pcl := hist(a, b, "rex_paxos_commit_latency_seconds", pri)
	add("paxos.commit_p50_us", "us", float64(hquant(pcl, 0.5))/us, int(pcl.Count))
	pbr, npb := sizeMean(a, b, "rex_paxos_persist_batch_records", all)
	add("paxos.persist_batch_records_mean", "count", pbr, npb)
	add("paxos.elections", "count", counter(a, b, "rex_paxos_elections_total", all), 0)

	// transport
	deliv := spanDurations(m.spans, spDelivery)
	add("transport.msgs_per_op", "count", ratio(float64(c[cSends]), ops), int(c[cSends]))
	add("transport.bytes_per_op", "B", ratio(float64(c[cSendBytes]), ops), int(c[cSends]))
	add("transport.delivery_p50_us", "us", quantile(deliv, 0.5)/us, len(deliv))
	add("transport.delivery_p99_us", "us", quantile(deliv, 0.99)/us, len(deliv))
	add("transport.delivery_matched_share", "ratio", ratio(float64(c[cDelivMatched]), float64(c[cDelivMatched]+c[cDelivUnmatched])), int(c[cDelivMatched]))
	add("transport.tcp_drops", "count", counter(a, b, "tcp_drops_total", all), 0)

	// storage
	app := spanDurations(m.spans, spAppend)
	add("storage.append_p50_us", "us", quantile(app, 0.5)/us, len(app))
	add("storage.append_p99_us", "us", quantile(app, 0.99)/us, len(app))
	add("storage.records_per_batch", "count", ratio(float64(c[cAppendRecords]), float64(c[cAppendCalls])), int(c[cAppendCalls]))
	add("storage.fsyncs_per_op", "count", ratio(counter(a, b, "rex_wal_fsyncs_total", all), ops), measuredOps)
	add("storage.bytes_per_op", "B", ratio(float64(c[cAppendBytes]), ops), measuredOps)
	add("storage.snapshot_save_ms", "ms", ratio(float64(c[cSnapSaveNanos]), float64(c[cSnapSaves]))/ms, int(c[cSnapSaves]))
	add("storage.recovery_read_ms", "ms", ratio(float64(cAll[cRecordsNanos]), float64(cAll[cRecordsCalls]))/ms, int(cAll[cRecordsCalls]))

	// tracing itself
	tw := latencies(open, opWrite, func(x result) bool { return x.traced })
	uw := latencies(open, opWrite, func(x result) bool { return !x.traced })
	add("trace_overhead_ratio", "ratio", ratio(quantile(tw, 0.5), quantile(uw, 0.5)), len(tw))
	wf := waterfall(m.spans)
	add("trace.explained_share", "ratio", wf.explainedShare(), wf.ops)
	add("trace.unexplained_share", "ratio", 1-wf.explainedShare(), wf.ops)

	r.lines = append(r.lines, fmt.Sprintf("spans: %d kept in traced windows (%d dropped over the memory cap), written to %s",
		len(m.spans), m.tr.droppedSpans(), m.spanFile))
	r.lines = append(r.lines, layerTable(m.spans, a, b)...)
	r.lines = append(r.lines, wf.lines()...)
}

func spanDurations(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// layerTable summarizes each span name: count, busy time, self time and,
// where it is known from outside, the time the work waited.
func layerTable(spans []span, a, b point) []string {
	type agg struct {
		n          int
		busy, wait int64
	}
	by := map[string]*agg{}
	var names []string
	for _, s := range spans {
		g := by[s.Name]
		if g == nil {
			g = &agg{}
			by[s.Name] = g
			names = append(names, s.Name)
		}
		g.n++
		g.busy += s.End - s.Start
		g.wait += s.Wait
	}
	sort.Strings(names)
	out := []string{fmt.Sprintf("layer %-24s %8s %12s %12s %12s", "span", "count", "busy_ms", "self_ms", "wait_ms")}
	for _, name := range names {
		g := by[name]
		self := g.busy
		wait := fmt.Sprintf("%12.3f", float64(g.wait)/ms)
		if strings.HasPrefix(name, "client.") {
			// Inner layers are batched across requests, so a client op's
			// children are attributed by time window (see waterfall): the
			// self time of client spans is the unexplained remainder.
			self = -1
		} else {
			wait = fmt.Sprintf("%12s", "-")
		}
		selfS := fmt.Sprintf("%12.3f", float64(self)/ms)
		if self < 0 {
			selfS = fmt.Sprintf("%12s", "see below")
		}
		out = append(out, fmt.Sprintf("layer %-24s %8d %12.3f %s %s", name, g.n, float64(g.busy)/ms, selfS, wait))
	}
	return out
}

// wf is the write-latency waterfall over the traced windows.
type wf struct {
	ops      int
	latency  int64 // Σ due → done
	connWait int64 // Σ due → sent
	explain  int64 // Σ |union of blocking-step spans within sent → done|
	byLayer  map[string]int64
}

func (w wf) explainedShare() float64 {
	return ratio(float64(w.connWait+w.explain), float64(w.latency))
}

func (w wf) lines() []string {
	out := []string{fmt.Sprintf("waterfall: %d traced writes, mean latency %.3f ms (due → reply)", w.ops, ratio(float64(w.latency), float64(w.ops))/ms)}
	row := func(name string, v int64) {
		out = append(out, fmt.Sprintf("waterfall %-28s %9.3f ms/op %6.1f%%", name, ratio(float64(v), float64(w.ops))/ms, 100*ratio(float64(v), float64(w.latency))))
	}
	row("loadgen.conn_wait", w.connWait)
	for _, l := range []string{spApply, spDelivery, spAppend} {
		row(l+" (alone)", w.byLayer[l])
	}
	row("explained (union)", w.connWait+w.explain)
	row("unexplained remainder", w.latency-w.connWait-w.explain)
	return out
}

// waterfall attributes each traced client write's service time
// (sent → done) to the blocking steps visible from outside: the primary's
// Apply of that very write (matched by write id), and — because consensus
// batches requests — every WAL append and every replica-to-replica
// delivery that overlaps the write in time, on any replica. The union of
// those intervals is the explained part; the rest (server framing and
// dispatch, admission, delta encode, send queues, commit → reply release)
// is the unexplained remainder.
func waterfall(spans []span) wf {
	w := wf{byLayer: map[string]int64{}}
	applyByOp := map[uint64][]span{}
	inner := map[string][]span{}
	for _, s := range spans {
		switch s.Name {
		case spApply:
			if s.Op != 0 {
				applyByOp[s.Op] = append(applyByOp[s.Op], s)
			}
		case spAppend, spDelivery:
			inner[s.Name] = append(inner[s.Name], s)
		}
	}
	longest := map[string]int64{}
	for name, ss := range inner {
		sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
		for _, s := range ss {
			longest[name] = max(longest[name], s.End-s.Start)
		}
	}
	overlapping := func(name string, lo, hi int64) [][2]int64 {
		ss := inner[name]
		i := sort.Search(len(ss), func(i int) bool { return ss[i].Start >= lo-longest[name] })
		var out [][2]int64
		for ; i < len(ss) && ss[i].Start < hi; i++ {
			if ss[i].End > lo {
				out = append(out, [2]int64{max(ss[i].Start, lo), min(ss[i].End, hi)})
			}
		}
		return out
	}
	for _, s := range spans {
		if s.Name != spWrite {
			continue
		}
		lo, hi := s.Start, s.End
		var ivs [][2]int64
		for _, ap := range applyByOp[s.Op] {
			if ap.End > lo && ap.Start < hi {
				iv := [2]int64{max(ap.Start, lo), min(ap.End, hi)}
				ivs = append(ivs, iv)
				w.byLayer[spApply] += union([][2]int64{iv})
			}
		}
		for _, name := range []string{spAppend, spDelivery} {
			o := overlapping(name, lo, hi)
			w.byLayer[name] += union(o)
			ivs = append(ivs, o...)
		}
		w.ops++
		w.latency += s.End - s.Start + s.Wait
		w.connWait += s.Wait
		w.explain += union(ivs)
	}
	return w
}

// union returns the total length covered by the intervals.
func union(ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := ivs[0]
	for _, iv := range ivs[1:] {
		if iv[0] > cur[1] {
			total += cur[1] - cur[0]
			cur = iv
		} else if iv[1] > cur[1] {
			cur[1] = iv[1]
		}
	}
	return total + cur[1] - cur[0]
}
