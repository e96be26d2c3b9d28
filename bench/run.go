package main

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"

	"prins/internal/block"
	"prins/internal/metrics"
	"prins/internal/queueing"
)

// Shape of a run. The measured phase is cut into equal consecutive
// segments; every timing reported is the median over them.
const (
	segments        = 5
	setupsPerRun    = 5
	auditsPerRun    = 5
	warmupShare     = 0.1 // of the measured time, run first and not measured
	untracedOfTrace = 2   // a traced run measures this many segments untraced first
	tracedOfTrace   = 4
)

type runConfig struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	scale    float64 // 1 = the benchmark; the tests run smaller
	outDir   string  // span and result files; empty: none written
}

// metricValue is one reported number, in the driver's shape.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what one run of one workload produced. The first four
// fields are the line the driver reads; the rest goes to the result
// file and the printed report.
type outcome struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	Workload string         `json:"workload,omitempty"`
	Seed     int64          `json:"seed,omitempty"`
	Samples  map[string]int `json:"samples,omitempty"`
	// Each is every sample a reported median was taken over.
	Each  map[string][]float64 `json:"each,omitempty"`
	Env   *environment         `json:"env,omitempty"`
	Notes []string             `json:"notes,omitempty"`
}

// counts is what the clients have done so far, summed over them.
type counts struct {
	writes int64 // acknowledged
	reads  int64
	ops    int64         // application operations
	inside time.Duration // time inside ReadBlock/WriteBlock
}

func countClients(clients []client) counts {
	var c counts
	for _, cl := range clients {
		d := cl.store()
		c.writes += d.writes
		c.reads += d.reads
		c.ops += cl.ops()
		c.inside += d.inside
	}
	return c
}

// segment is one measured slice of a run; its counts are the segment's
// own.
type segment struct {
	counts
	elapsed time.Duration // first write -> Drain returned
	drain   time.Duration // last write returned -> Drain returned
	lat     []int64       // ns, sorted
	wire    int64         // bytes written to the session's connection
	cpu     time.Duration
	traced  bool
}

// resyncSample is one pass of the recovery path.
type resyncSample struct {
	dur      time.Duration
	wire     int64 // both directions
	compared uint64
	shipped  uint64
	differed uint64
	hashRT   time.Duration
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// run executes one workload once and returns everything it measured.
// It is the whole benchmark for one (workload, seed, trace) triple; the
// process around it exists so CPU time, RSS and allocation counts are
// this workload's alone.
func run(cfg runConfig) (*outcome, error) {
	sp, ok := findWorkload(cfg.workload)
	if !ok {
		return nil, fmt.Errorf("bench: unknown workload %q", cfg.workload)
	}
	if cfg.scale <= 0 {
		cfg.scale = 1
	}
	sp = sp.scaled(cfg.scale)

	var tr *tracer
	setups := setupsPerRun
	if cfg.trace {
		tr = newTracer(sp)
		setups = 1 // setup_s is an end-to-end metric; the traced run does not report it
	}

	// Set-up, several times over: build, tear down, build again. The
	// heap is returned between builds so peak RSS is one cell's.
	var c *cell
	var setupS []float64
	for i := 0; i < setups; i++ {
		if c != nil {
			c.close()
			c = nil
			debug.FreeOSMemory()
		}
		start := time.Now()
		var err error
		if c, err = buildCell(sp, cfg.seed, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
	}
	defer c.close()

	clients, err := newClients(sp, c.engine, tr, cfg.seed)
	if err != nil {
		return nil, err
	}

	nseg, untraced := segments, segments
	if cfg.trace {
		nseg, untraced = untracedOfTrace+tracedOfTrace, untracedOfTrace
	}
	segDur := time.Duration(cfg.seconds / float64(nseg) * float64(time.Second))

	// Warm-up: heap growth, buffer pools, socket buffers and the first
	// touch of every page are paid once per process, not per write.
	warm := time.Duration(cfg.seconds * warmupShare * float64(time.Second))
	if _, err := c.runSegment(clients, warm); err != nil {
		return nil, err
	}

	var segs []segment
	var resyncs []resyncSample
	before := c.engine.Traffic().Snapshot()
	var m0, m1 runtime.MemStats // around the untraced segments of a traced run
	if cfg.trace {
		runtime.ReadMemStats(&m0)
	}
	for i := 0; i < nseg; i++ {
		traced := cfg.trace && i >= untraced
		if traced && i == untraced {
			runtime.ReadMemStats(&m1)
		}
		tr.record(traced)
		seg, err := c.runSegment(clients, segDur)
		tr.record(false)
		if err != nil {
			return nil, err
		}
		seg.traced = traced
		segs = append(segs, seg)
		if sp.outageRounds > 0 {
			rs, err := c.outage(clients[0])
			if err != nil {
				return nil, err
			}
			resyncs = append(resyncs, rs)
		}
	}
	after := c.engine.Traffic().Snapshot()

	// Quiesce the application (a database flushes and saves its
	// catalog), then audit: a whole-device resync over the session must
	// find nothing to repair, and the raw stores must be byte-identical.
	for _, cl := range clients {
		if err := cl.finish(); err != nil {
			return nil, err
		}
	}
	if err := c.engine.Drain(); err != nil {
		return nil, fmt.Errorf("bench: drain: %w", err)
	}
	var notes []string
	correct := true
	if sp.outageRounds == 0 {
		for i := 0; i < auditsPerRun; i++ {
			rs, err := c.timedResync(0, block.Range{Start: 0, Count: sp.numBlocks})
			if err != nil {
				return nil, err
			}
			if rs.shipped != 0 {
				correct = false
				notes = append(notes, fmt.Sprintf("audit %d repaired %d blocks of a replica that should have been identical", i, rs.shipped))
			}
			resyncs = append(resyncs, rs)
		}
	}
	same, err := c.converged()
	if err != nil {
		return nil, err
	}
	if !same {
		correct = false
		notes = append(notes, "replica image differs from the primary")
	} else if err := c.checkApp(); err != nil {
		correct = false
		notes = append(notes, err.Error())
	}

	out := &outcome{
		Correct:  correct,
		Metrics:  make(map[string]metricValue),
		Samples:  make(map[string]int),
		Each:     make(map[string][]float64),
		Workload: sp.name,
		Seed:     cfg.seed,
		Env:      readEnvironment(sp),
		Notes:    notes,
	}
	delta := trafficDelta(before, after)
	for _, cl := range clients {
		d := cl.store()
		out.Attempted += d.attempted
		out.Failed += d.failed
	}
	out.Failed += delta.Diverged
	if out.Attempted < 1 {
		return nil, errors.New("bench: the run attempted nothing")
	}
	if out.Failed > 0 {
		out.Correct = false
	}

	if cfg.trace {
		layerMetrics(out, c, clients, segs, resyncs, delta, m1.Mallocs-m0.Mallocs)
		if cfg.outDir != "" {
			path, err := tr.writeSpans(cfg.outDir, sp.name, cfg.seed)
			if err != nil {
				return nil, err
			}
			out.Notes = append(out.Notes, "spans: "+path)
		}
	} else {
		endToEndMetrics(out, setupS, segs, resyncs)
	}
	return out, nil
}

// runSegment lets every client issue operations, closed loop, until
// the segment's time is up, then drains the replication queues. The
// segment's clock stops when the replica has everything.
func (c *cell) runSegment(clients []client, dur time.Duration) (segment, error) {
	marks := make([]int, len(clients))
	for i, cl := range clients {
		marks[i] = len(cl.store().lat)
	}
	before := countClients(clients)
	wire0 := c.conn.wBytes.Load()
	cpu0 := cpuTime()
	start := time.Now()
	deadline := start.Add(dur)

	errs := make([]error, len(clients))
	var wg sync.WaitGroup
	for i, cl := range clients {
		wg.Add(1)
		go func(i int, cl client) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				if err := cl.step(); err != nil {
					errs[i] = err
					return
				}
			}
		}(i, cl)
	}
	wg.Wait()
	lastWrite := time.Now()
	for _, err := range errs {
		if err != nil {
			return segment{}, fmt.Errorf("bench: %s: client: %w", c.spec.name, err)
		}
	}
	if err := c.engine.Drain(); err != nil {
		return segment{}, fmt.Errorf("bench: %s: drain: %w", c.spec.name, err)
	}
	end := time.Now()

	now := countClients(clients)
	seg := segment{
		counts: counts{
			writes: now.writes - before.writes,
			reads:  now.reads - before.reads,
			ops:    now.ops - before.ops,
			inside: now.inside - before.inside,
		},
		elapsed: end.Sub(start),
		drain:   end.Sub(lastWrite),
		wire:    c.conn.wBytes.Load() - wire0,
		cpu:     cpuTime() - cpu0,
	}
	for i, cl := range clients {
		seg.lat = append(seg.lat, cl.store().lat[marks[i]:]...)
	}
	sort.Slice(seg.lat, func(a, b int) bool { return seg.lat[a] < seg.lat[b] })
	if seg.writes == 0 {
		return segment{}, fmt.Errorf("bench: %s: a segment of %v acknowledged no write", c.spec.name, dur)
	}
	return seg, nil
}

// outage cuts the link, lets the application run on against a replica
// that degrades, brings the link back and heals the replica over the
// dirty ranges: quiesce, RunRanges, ClearDirty, ClearDegraded — the
// documented way back.
func (c *cell) outage(cl client) (resyncSample, error) {
	c.link.sever()
	for i := 0; i < c.spec.outageRounds; i++ {
		if err := cl.step(); err != nil {
			return resyncSample{}, fmt.Errorf("bench: write during the outage: %w", err)
		}
	}
	if err := c.engine.Drain(); err != nil {
		return resyncSample{}, fmt.Errorf("bench: drain during the outage: %w", err)
	}
	c.tr.dropPending()
	if !c.engine.Degraded() {
		return resyncSample{}, errors.New("bench: the replica did not degrade during the outage")
	}
	dirty := c.engine.DirtyRanges(0)
	differed, err := c.differing(dirty)
	if err != nil {
		return resyncSample{}, err
	}
	c.link.restore()
	rs, err := c.timedResync(differed, dirty...)
	if err != nil {
		return resyncSample{}, err
	}
	same, err := c.converged()
	if err != nil {
		return resyncSample{}, err
	}
	if !same {
		return resyncSample{}, errors.New("bench: replica still differs after the ranged resync")
	}
	return rs, nil
}

// timedResync runs one resync pass over the session and, when the
// replica was degraded, reinstates it. The clock covers the redial and
// relogin the first request triggers.
func (c *cell) timedResync(differed uint64, ranges ...block.Range) (resyncSample, error) {
	w0, r0 := c.conn.wBytes.Load(), c.conn.rBytes.Load()
	// Collect first, so a cycle owed to garbage from before the resync
	// does not land inside one pass and not the next.
	runtime.GC()
	var h0 time.Duration
	if c.tr != nil {
		c.tr.rtOn.Store(true)
		h0 = c.tr.headerRoundTrips()
	}
	start := time.Now()
	stats, err := c.resync(ranges...)
	if err != nil {
		return resyncSample{}, fmt.Errorf("bench: resync: %w", err)
	}
	if c.engine.Degraded() {
		c.engine.ClearDirty(0)
		c.engine.ClearDegraded()
	}
	rs := resyncSample{
		dur:      time.Since(start),
		wire:     c.conn.wBytes.Load() - w0 + c.conn.rBytes.Load() - r0,
		compared: stats.BlocksScanned,
		shipped:  stats.BlocksRepaired,
		differed: differed,
	}
	if c.tr != nil {
		rs.hashRT = c.tr.headerRoundTrips() - h0
		c.tr.rtOn.Store(false)
	}
	return rs, nil
}

// record switches the tracer's recording for the coming segment.
func (t *tracer) record(on bool) {
	if t != nil {
		t.on.Store(on)
	}
}

func trafficDelta(a, b metrics.Snapshot) metrics.Snapshot {
	return metrics.Snapshot{
		Replicated:      b.Replicated - a.Replicated,
		Coalesced:       b.Coalesced - a.Coalesced,
		Retries:         b.Retries - a.Retries,
		Dropped:         b.Dropped - a.Dropped,
		Diverged:        b.Diverged - a.Diverged,
		DedupeHits:      b.DedupeHits - a.DedupeHits,
		DedupeMisses:    b.DedupeMisses - a.DedupeMisses,
		DedupeSavedWire: b.DedupeSavedWire - a.DedupeSavedWire,
	}
}

func (o *outcome) set(def metricDef, v float64, samples int) {
	o.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
	o.Samples[def.name] = samples
}

func defOf(table []metricDef, name string) metricDef {
	for _, d := range table {
		if d.name == name {
			return d
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

// perSegment maps the segments through f and returns the values.
func perSegment(segs []segment, f func(segment) float64) []float64 {
	out := make([]float64, len(segs))
	for i, s := range segs {
		out[i] = f(s)
	}
	return out
}

func endToEndMetrics(out *outcome, setupS []float64, segs []segment, resyncs []resyncSample) {
	e := func(name string, vals []float64) {
		out.set(defOf(endToEnd, name), median(vals), len(vals))
		out.Each[name] = vals
	}
	e("setup_s", setupS)
	e("writes_per_s", perSegment(segs, func(s segment) float64 { return float64(s.writes) / s.elapsed.Seconds() }))
	e("write_mean_ms", perSegment(segs, func(s segment) float64 {
		var sum int64
		for _, ns := range s.lat {
			sum += ns
		}
		return float64(sum) / float64(len(s.lat)) / 1e6
	}))
	// A byte count per write is a ratio of two counts, not a timing: take
	// it over the whole measured phase.
	var wire, writes int64
	for _, s := range segs {
		wire += s.wire
		writes += s.writes
	}
	out.set(defOf(endToEnd, "wire_bytes_per_write"), float64(wire)/float64(writes), int(writes))
	var rs, rb []float64
	for _, r := range resyncs {
		rs = append(rs, r.dur.Seconds())
		rb = append(rb, float64(r.wire)/float64(r.compared))
	}
	e("resync_s", rs)
	e("resync_wire_bytes_per_block", rb)
	out.set(defOf(endToEnd, "peak_rss_mb"), peakRSSMiB(), 1)

	// Informational: the percentiles are per-layer metrics (the traced run
	// reports them), because on async-dense-cpu they time the scheduler;
	// p99.9 only when ten samples lie beyond it.
	all := allLat(segs)
	note := fmt.Sprintf("write latency over the whole run (%d writes): p50 %.4f ms, p99 %.4f ms",
		len(all), float64(percentile(all, 0.50))/1e6, float64(percentile(all, 0.99))/1e6)
	if len(all) >= 10_000 {
		note += fmt.Sprintf(", p99.9 %.4f ms", float64(percentile(all, 0.999))/1e6)
	}
	out.Notes = append(out.Notes, note)
}

// layerMetrics fills every per-layer metric from the tracer's
// aggregates over the traced segments, the counters, and the replay.
func layerMetrics(out *outcome, c *cell, clients []client, segs []segment, resyncs []resyncSample, delta metrics.Snapshot, mallocs uint64) {
	t := c.tr
	sp := c.spec
	l := func(name string, v float64, n int) { out.set(defOf(perLayer, name), v, n) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	var tracedSegs, plainSegs []segment
	for _, s := range segs {
		if s.traced {
			tracedSegs = append(tracedSegs, s)
		} else {
			plainSegs = append(plainSegs, s)
		}
	}
	var tWrites, pWrites int64
	var tElapsed, tWire, pCPU float64
	for _, s := range tracedSegs {
		tWrites += s.writes
		tElapsed += s.elapsed.Seconds()
		tWire += float64(s.wire)
	}
	for _, s := range plainSegs {
		pWrites += s.writes
		pCPU += float64(s.cpu.Microseconds())
	}
	wps := func(ss []segment) float64 {
		return median(perSegment(ss, func(s segment) float64 { return float64(s.writes) / s.elapsed.Seconds() }))
	}

	set := func(name string, s stage) { l(name, t.agg[s].meanUS(), int(t.agg[s].n.Load())) }
	shipped := float64(t.shipMsgs.Load())
	calls := float64(t.agg[stShipCall].n.Load())

	set("core.write_self_us", stWriteSelf)
	set("core.queue_wait_us", stQueueWait)
	set("core.ack_return_us", stAckReturn)
	l("core.frames_per_batch", ratio(shipped, calls), int(calls))
	l("core.coalesced_ratio", ratio(shipped-float64(t.shipEntries.Load()), shipped), int(shipped))
	l("core.retries", float64(delta.Retries), 1)
	l("core.dropped", float64(delta.Dropped), 1)
	l("core.allocs_per_write", ratio(float64(mallocs), float64(pWrites)), int(pWrites))
	set("core.replica_apply_us", stApply)
	set("core.replica_apply_self_us", stApplySelf)
	l("core.write_p50_ms", median(perSegment(plainSegs, func(s segment) float64 { return float64(percentile(s.lat, 0.50)) / 1e6 })), len(plainSegs))
	l("core.write_p99_ms", median(perSegment(plainSegs, func(s segment) float64 { return float64(percentile(s.lat, 0.99)) / 1e6 })), len(plainSegs))
	l("core.drain_s", median(perSegment(segs, func(s segment) float64 { return s.drain.Seconds() })), len(segs))
	l("proc.cpu_us_per_write", ratio(pCPU, float64(pWrites)), int(pWrites))
	set("block.primary_read_us", stPrimRead)
	set("block.primary_write_us", stPrimWrite)
	l("block.primary_reads_per_write", ratio(float64(t.agg[stPrimRead].n.Load()), float64(tWrites)), int(tWrites))
	set("block.replica_read_us", stReplRead)
	set("block.replica_write_us", stReplWrite)
	set("iscsi.ship_call_us", stShipCall)
	l("iscsi.conn_writes_per_batch", ratio(float64(t.agg[stConnWrite].n.Load()), calls), int(calls))
	l("iscsi.pdu_overhead_bytes_per_frame", ratio(tWire-float64(t.frameBytes.Load()), float64(t.shipEntries.Load())), int(t.shipEntries.Load()))
	set("wan.shape_delay_us", stConnWrite)
	l("wan.link_busy_ratio", ratio(tWire, sp.link.BytesPerSecond*tElapsed), len(tracedSegs))
	set("journal.begin_us", stJournalBegin)
	set("journal.commit_us", stJournalCommit)
	l("journal.bytes_per_write", ratio(float64(t.jBytes.Load()), shipped), int(shipped))
	l("journal.syncs_per_write", ratio(float64(t.jSyncs.Load()), shipped), int(shipped))
	delivered := float64(delta.Replicated - delta.Coalesced) // wire entries the replica acknowledged
	l("dedupe.hit_ratio", ratio(float64(delta.DedupeHits), delivered), int(delivered))
	l("dedupe.saved_wire_bytes_per_write", ratio(float64(delta.DedupeSavedWire), float64(delta.Replicated)), int(delta.Replicated))
	l("dedupe.miss_reships", float64(delta.DedupeMisses), 1)

	var hx, cmp, shp, useful []float64
	for _, r := range resyncs {
		hx = append(hx, r.hashRT.Seconds())
		cmp = append(cmp, float64(r.compared))
		shp = append(shp, float64(r.shipped))
		if r.shipped == 0 {
			useful = append(useful, 1)
		} else {
			useful = append(useful, float64(r.differed)/float64(r.shipped))
		}
	}
	l("resync.hash_exchange_s", median(hx), len(hx))
	l("resync.blocks_compared", median(cmp), len(cmp))
	l("resync.blocks_shipped", median(shp), len(shp))
	l("resync.useful_ratio", median(useful), len(useful))

	// Application shares and device operations per transaction, over the
	// measured segments.
	var inside, wall float64
	var allOps int64
	for _, s := range segs {
		inside += s.inside.Seconds()
		wall += (s.elapsed - s.drain).Seconds()
		allOps += s.ops
	}
	appShare := 1 - ratio(inside, wall*float64(len(clients)))
	zero := func(names ...string) {
		for _, n := range names {
			l(n, 0, 0)
		}
	}
	zero("tpcc.txn_per_s", "tpcc.app_share", "memfs.app_share", "minidb.device_writes_per_txn", "minidb.device_reads_per_txn")
	switch sp.kind {
	case kindTPCC:
		l("tpcc.txn_per_s", median(perSegment(segs, func(s segment) float64 { return float64(s.ops) / s.elapsed.Seconds() })), len(segs))
		l("tpcc.app_share", appShare, 1)
		var reads, writes int64
		for _, s := range segs {
			reads += s.reads
			writes += s.writes
		}
		l("minidb.device_writes_per_txn", ratio(float64(writes), float64(allOps)), int(allOps))
		l("minidb.device_reads_per_txn", ratio(float64(reads), float64(allOps)), int(allOps))
	case kindTar:
		l("memfs.app_share", appShare, 1)
	}

	// Reconciliation. The session is the one queueing centre: its
	// service time per write is the ship-call time spread over the
	// writes a call carries. A writer's think time is what is left of
	// its wall clock per write once the waiting (sync: everything after
	// the local apply) is taken out. An async engine also keeps up to a
	// queue's worth of writes in flight per shard.
	meanWrite := t.agg[stWrite].meanUS()
	stageSum := t.agg[stWriteSelf].meanUS() + t.agg[stQueueWait].meanUS() + t.agg[stShipWrite].meanUS() +
		t.agg[stAckReturn].meanUS() + ratio(float64(t.agg[stPrimRead].ns.Load()+t.agg[stPrimWrite].ns.Load())/1e3, float64(t.agg[stWrite].n.Load()))
	if !t.sync {
		// An async WriteBlock returns before its frame ships: only the
		// self time and the store children lie inside the span.
		stageSum -= t.agg[stQueueWait].meanUS() + t.agg[stShipWrite].meanUS()
	}
	l("trace.stage_sum_ratio", ratio(stageSum, meanWrite), int(t.agg[stWrite].n.Load()))
	l("trace.overhead_ratio", ratio(wps(tracedSegs), wps(plainSegs)), len(tracedSegs))

	service := ratio(float64(t.agg[stShipCall].ns.Load()), shipped) // ns per write
	perWrite := ratio(tElapsed*1e9*float64(len(clients)), float64(tWrites))
	population := len(clients)
	var think float64
	if t.sync {
		think = perWrite - (t.agg[stQueueWait].meanUS()+t.agg[stShipWrite].meanUS()+t.agg[stAckReturn].meanUS())*1e3
	} else {
		shards := sp.engine.Shards
		if shards < 1 {
			shards = 1
		}
		depth := sp.engine.QueueDepth
		if depth <= 0 {
			depth = 256
		}
		population += depth * shards
		// A stall on a full queue is waiting, not thinking: count a
		// WriteBlock at its median, not its mean.
		think = perWrite - meanWrite*1e3 + float64(percentile(allLat(tracedSegs), 0.5))
	}
	if think < 0 {
		think = 0
	}
	mva := 0.0
	if service > 0 {
		res, err := queueing.Solve(queueing.Network{
			ThinkTime:     time.Duration(think),
			RouterService: []time.Duration{time.Duration(service)},
		}, population)
		if err == nil && res.Throughput > 0 {
			mva = ratio(float64(tWrites), tElapsed) / res.Throughput
		}
	}
	l("queueing.mva_ratio", mva, int(tWrites))

	replay(out, t.pairs, sp)
}

func allLat(segs []segment) []int64 {
	var all []int64
	for _, s := range segs {
		all = append(all, s.lat...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a] < all[b] })
	return all
}
