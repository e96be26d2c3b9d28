package main

import (
	"math"
	"sort"
)

// metricDef names one reported number. The same table feeds the
// printed report, -compare, and the test that keeps BENCHMARK.json in
// step, so a name exists in exactly one place in the code.
type metricDef struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end-to-end only: share of the base median it may worsen by
	doc    string
}

// endToEnd is what a user of a replicated volume sees. Every workload
// reports every one of them; timings are the median of the run's
// measured segments.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "device fill or DB load or mkfs+tree, initial sync, listen, dial, login, attach (index warm-up where dedupe is on); median of 5 set-ups"},
	{"writes_per_s", "1/s", "higher", 0.25, "acknowledged block writes / time from the segment's first write until Drain returned"},
	{"write_mean_ms", "ms", "lower", 0.25, "WriteBlock call to return, mean: the response time of a write on the replicated volume, stalls on a full queue included"},
	{"wire_bytes_per_write", "B", "lower", 0.05, "bytes written to the replica session's net.Conn / acknowledged writes (measured, not modelled)"},
	{"resync_s", "s", "lower", 0.25, "hash exchange plus repair over the session: the dirty ranges after the outage, or a whole-device audit where there was none"},
	{"resync_wire_bytes_per_block", "B", "lower", 0.05, "session bytes in both directions during resync / blocks compared"},
	{"peak_rss_mb", "MiB", "lower", 0.25, "ru_maxrss of the workload's process"},
}

// perLayer is one number per thing a layer does, from the traced run
// and the kernel replay. Layer = package name. No bounds: they explain
// a movement in an end-to-end metric, they do not gate.
var perLayer = []metricDef{
	{"core.write_self_us", "us", "lower", 0, "WriteBlock minus store children and (sync) everything after the local apply: lock wait + XOR, plus encode + hash + enqueue (back-pressure included) when async"},
	{"core.queue_wait_us", "us", "lower", 0, "local apply end -> the shipper holds the session: encode + hash + enqueue (sync), queue wait, session wait"},
	{"core.ack_return_us", "us", "lower", 0, "ship call returned -> WriteBlock returned (sync writes; 0 when async)"},
	{"core.frames_per_batch", "count", "higher", 0, "writes carried per ship call"},
	{"core.coalesced_ratio", "ratio", "higher", 0, "writes folded into another write's wire entry / writes shipped"},
	{"core.retries", "count", "lower", 0, "delivery retries (Traffic snapshot delta)"},
	{"core.dropped", "count", "lower", 0, "frames dropped while the replica was degraded: the outage window's writes, not failures"},
	{"core.allocs_per_write", "count", "lower", 0, "MemStats.Mallocs delta / acknowledged writes, over the untraced segments"},
	{"core.replica_apply_us", "us", "lower", 0, "one push handled by the replica engine (iscsi.Backend wrapper)"},
	{"core.replica_apply_self_us", "us", "lower", 0, "the same minus replica store and journal children: decode + backward parity + verify"},
	{"core.write_p50_ms", "ms", "lower", 0, "WriteBlock call to return, median, over the untraced segments"},
	{"core.write_p99_ms", "ms", "lower", 0, "WriteBlock call to return, 99th percentile, over the untraced segments"},
	{"core.drain_s", "s", "lower", 0, "last write returned -> Drain returned, per segment: how far the replica runs behind"},
	{"proc.cpu_us_per_write", "us", "lower", 0, "process user+system CPU (getrusage), primary and replica and client, / acknowledged writes, over the untraced segments"},
	{"block.primary_read_us", "us", "lower", 0, "one ReadBlock on the primary store"},
	{"block.primary_write_us", "us", "lower", 0, "one WriteBlock on the primary store"},
	{"block.primary_reads_per_write", "ratio", "lower", 0, "primary store reads (pre-image and application) / acknowledged writes"},
	{"block.replica_read_us", "us", "lower", 0, "one ReadBlock on the replica store"},
	{"block.replica_write_us", "us", "lower", 0, "one WriteBlock on the replica store"},
	{"iscsi.ship_call_us", "us", "lower", 0, "one ReplicaWrite* call with the session held: wire + replica + reply"},
	{"iscsi.conn_writes_per_batch", "ratio", "lower", 0, "Write/WriteBuffers calls on the connection / ship calls"},
	{"iscsi.pdu_overhead_bytes_per_frame", "B", "lower", 0, "(connection bytes - encoded frame bytes) / wire entries"},
	{"wan.shape_delay_us", "us", "lower", 0, "one write on the session's connection: the shaper's delay plus the socket write (the raw write alone where unshaped)"},
	{"wan.link_busy_ratio", "ratio", "higher", 0, "connection bytes / (link bytes per second x elapsed); 0 where unshaped"},
	{"journal.begin_us", "us", "lower", 0, "intent WriteAt -> Sync returned (journal.Backing wrapper)"},
	{"journal.commit_us", "us", "lower", 0, "clear WriteAt -> Sync returned"},
	{"journal.bytes_per_write", "B", "lower", 0, "bytes written to the journal backing / writes shipped"},
	{"journal.syncs_per_write", "ratio", "lower", 0, "Sync calls / writes shipped"},
	{"dedupe.hit_ratio", "ratio", "higher", 0, "wire entries delivered as a 28-byte reference / wire entries delivered"},
	{"dedupe.saved_wire_bytes_per_write", "B", "higher", 0, "DedupeSavedWire delta / writes delivered"},
	{"dedupe.miss_reships", "count", "lower", 0, "references the replica could not resolve and the primary re-shipped by value"},
	{"resync.hash_exchange_s", "s", "lower", 0, "time in round trips whose request was a bare header (hash fetches), per resync"},
	{"resync.blocks_compared", "count", "lower", 0, "blocks hashed on both sides, per resync"},
	{"resync.blocks_shipped", "count", "lower", 0, "blocks rewritten on the replica, per resync"},
	{"resync.useful_ratio", "ratio", "higher", 0, "blocks the harness saw differ before the resync / blocks shipped (1 when nothing needed shipping)"},
	{"tpcc.txn_per_s", "1/s", "higher", 0, "TPC-C transactions / segment time; 0 off tpcc-t1"},
	{"tpcc.app_share", "ratio", "higher", 0, "1 - time inside the primary's ReadBlock/WriteBlock / wall; 0 off tpcc-t1"},
	{"memfs.app_share", "ratio", "higher", 0, "the same for the memfs client; 0 off tar-dedupe-outage-t3"},
	{"minidb.device_writes_per_txn", "ratio", "lower", 0, "block writes minidb issued / transactions"},
	{"minidb.device_reads_per_txn", "ratio", "lower", 0, "block reads minidb issued (buffer-pool misses) / transactions"},
	{"queueing.mva_ratio", "ratio", "higher", 0, "measured writes/s / queueing.Solve over the measured think time and per-write session service time"},
	{"trace.stage_sum_ratio", "ratio", "higher", 0, "sum of the stage means / mean WriteBlock latency (sync: should be 0.9-1.1)"},
	{"trace.overhead_ratio", "ratio", "higher", 0, "traced / untraced writes per second in the same process"},
	{"parity.xor_count_ns", "ns", "lower", 0, "replay: parity.XORCountNonZero per block"},
	{"parity.backward_ns", "ns", "lower", 0, "replay: parity.BackwardInto per block"},
	{"parity.changed_fraction_mean", "ratio", "lower", 0, "replay: non-zero parity bytes / block bytes"},
	{"xcode.encode_ns", "ns", "lower", 0, "replay: xcode.AppendEncodeBest (ZRL, raw floor) per block"},
	{"xcode.decode_ns", "ns", "lower", 0, "replay: xcode.Decode per frame"},
	{"xcode.frame_bytes_mean", "B", "lower", 0, "replay: encoded frame size"},
	{"xcode.raw_floor_ratio", "ratio", "lower", 0, "replay: frames that fell back to raw framing / frames"},
	{"iscsi.hash_ns", "ns", "lower", 0, "replay: iscsi.HashBlock per block"},
	{"iscsi.batch_encode_ns", "ns", "lower", 0, "replay: iscsi.EncodeBatch per entry"},
	{"iscsi.batch_decode_ns", "ns", "lower", 0, "replay: iscsi.DecodeBatch per entry"},
	{"core.replica_apply_ns", "ns", "lower", 0, "replay: ReplicaEngine.ApplyStream on an in-process replica, no wire, per block"},
	{"journal.begin_commit_ns", "ns", "lower", 0, "replay: BeginStream + Commit on journal.Mem per block"},
	{"dedupe.put_lookup_ns", "ns", "lower", 0, "replay: Index.Put + Index.Contains per block"},
}

// median, quartiles and percentiles over float64 samples.

func sorted(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := sorted(v)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(v, n=4) does (exclusive method), so a spread
// computed here is the spread the driver computes.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	// Python: j = i*(n+1)//4 clipped to [1, n-1], then interpolate (or
	// extrapolate) between s[j-1] and s[j].
	quart := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return quart(1), quart(3)
}

// percentile returns the p-quantile (0..1) of sorted ns samples by
// nearest rank.
func percentile(sortedNs []int64, p float64) int64 {
	if len(sortedNs) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(sortedNs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sortedNs) {
		i = len(sortedNs) - 1
	}
	return sortedNs[i]
}
