package main

import (
	"time"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/dedupe"
	"prins/internal/iscsi"
	"prins/internal/journal"
	"prins/internal/parity"
	"prins/internal/xcode"
)

// The kernel replay runs the pure layers directly, single goroutine,
// on (old, new) block pairs the workload itself produced, so a kernel
// number and the traced stage it belongs to describe the same data.

// replayReps is how many timed rounds each kernel gets; the reported
// cost is the median round. A round repeats the pass over the pair set
// until it has covered replayBytes, so that small blocks are not timed
// in microsecond-long rounds.
const (
	replayReps  = 9
	replayBytes = 4 << 20
)

// timePerItem returns the median cost of one item in ns. prepare, when
// non-nil, runs untimed before each pass, and the round is then that
// one pass.
func timePerItem(items, blockSize int, prepare func(), pass func()) float64 {
	if items == 0 {
		return 0
	}
	passes := 1
	if prepare == nil {
		passes = max(1, replayBytes/(items*blockSize))
	}
	costs := make([]float64, 0, replayReps)
	for r := 0; r < replayReps; r++ {
		if prepare != nil {
			prepare()
		}
		start := time.Now()
		for p := 0; p < passes; p++ {
			pass()
		}
		costs = append(costs, float64(time.Since(start).Nanoseconds())/float64(items*passes))
	}
	return median(costs)
}

var replaySink uint64 // keeps results alive

func replay(out *outcome, pairs []blockPair, sp spec) {
	n := len(pairs)
	l := func(name string, v float64) { out.set(defOf(perLayer, name), v, n) }
	names := []string{"parity.xor_count_ns", "parity.backward_ns", "parity.changed_fraction_mean",
		"xcode.encode_ns", "xcode.decode_ns", "xcode.frame_bytes_mean", "xcode.raw_floor_ratio",
		"iscsi.hash_ns", "iscsi.batch_encode_ns", "iscsi.batch_decode_ns",
		"core.replica_apply_ns", "journal.begin_commit_ns", "dedupe.put_lookup_ns"}
	if n == 0 {
		for _, name := range names {
			l(name, 0)
		}
		return
	}
	bs := sp.blockSize

	// Forward parity, once, to have the frames everything below needs.
	parities := make([][]byte, n)
	frames := make([][]byte, n)
	hashes := make([]uint64, n)
	var changed, frameBytes, rawFloor int
	for i, p := range pairs {
		parities[i] = make([]byte, bs)
		nz, err := parity.XORCountNonZero(parities[i], p.new, p.old)
		if err != nil {
			return
		}
		changed += nz
		frames[i], err = xcode.EncodeBest(parities[i], xcode.CodecZRL)
		if err != nil {
			return
		}
		frameBytes += len(frames[i])
		if c, err := xcode.FrameCodec(frames[i]); err == nil && c == xcode.CodecRaw {
			rawFloor++
		}
		hashes[i] = iscsi.HashBlock(p.new)
	}
	l("parity.changed_fraction_mean", float64(changed)/float64(n*bs))
	l("xcode.frame_bytes_mean", float64(frameBytes)/float64(n))
	l("xcode.raw_floor_ratio", float64(rawFloor)/float64(n))

	scratch := make([]byte, bs)
	l("parity.xor_count_ns", timePerItem(n, bs, nil, func() {
		for _, p := range pairs {
			nz, _ := parity.XORCountNonZero(scratch, p.new, p.old) // sizes match by construction
			replaySink += uint64(nz)
		}
	}))
	l("parity.backward_ns", timePerItem(n, bs, nil, func() {
		for i, p := range pairs {
			_ = parity.BackwardInto(scratch, parities[i], p.old) // sizes match by construction
		}
	}))
	enc := make([]byte, 0, 2*bs)
	l("xcode.encode_ns", timePerItem(n, bs, nil, func() {
		for i := range pairs {
			b, _ := xcode.AppendEncodeBest(enc[:0], parities[i], xcode.CodecZRL) // ZRL cannot fail
			replaySink += uint64(len(b))
		}
	}))
	l("xcode.decode_ns", timePerItem(n, bs, nil, func() {
		for i := range pairs {
			b, _ := xcode.Decode(frames[i]) // frames are our own
			replaySink += uint64(len(b))
		}
	}))
	l("iscsi.hash_ns", timePerItem(n, bs, nil, func() {
		for _, p := range pairs {
			replaySink += iscsi.HashBlock(p.new)
		}
	}))

	// PDU batch codec, in batches of the engine's default cap.
	const batch = 32
	var batches [][]iscsi.BatchEntry
	for i := 0; i < n; i += batch {
		var b []iscsi.BatchEntry
		for j := i; j < n && j < i+batch; j++ {
			b = append(b, iscsi.BatchEntry{Seq: uint64(j + 1), LBA: uint64(j), Hash: hashes[j], Frame: frames[j]})
		}
		batches = append(batches, b)
	}
	encoded := make([][]byte, len(batches))
	l("iscsi.batch_encode_ns", timePerItem(n, bs, nil, func() {
		for i, b := range batches {
			encoded[i], _ = iscsi.EncodeBatch(b) // entries are within protocol bounds
		}
	}))
	l("iscsi.batch_decode_ns", timePerItem(n, bs, nil, func() {
		for _, e := range encoded {
			b, _ := iscsi.DecodeBatch(e) // our own encoding
			replaySink += uint64(len(b))
		}
	}))

	// Replica apply with no wire: one LBA per pair, holding the old
	// block before every pass; a fresh engine so its seq cursor starts
	// at zero.
	store, err := block.NewMem(bs, uint64(n))
	if err != nil {
		return
	}
	var repl *core.ReplicaEngine
	l("core.replica_apply_ns", timePerItem(n, bs, func() {
		for i, p := range pairs {
			_ = store.WriteBlock(uint64(i), p.old) // in range by construction
		}
		repl = core.NewReplicaEngine(store)
	}, func() {
		for i := range pairs {
			if err := repl.ApplyStream(core.ModePRINS, 0, 0, uint64(i+1), uint64(i), hashes[i], frames[i]); err != nil {
				replaySink++ // a refused apply would show as correct=false in the run itself
			}
		}
	}))

	jrnl := journal.NewMem()
	l("journal.begin_commit_ns", timePerItem(n, bs, nil, func() {
		for i, p := range pairs {
			_ = jrnl.BeginStream(0, 0, uint64(i+1), uint64(i), hashes[i], p.new) // Mem cannot fail
			_ = jrnl.Commit()
		}
	}))

	idx := dedupe.New(1 << 16)
	l("dedupe.put_lookup_ns", timePerItem(n, bs, nil, func() {
		for i := range pairs {
			idx.Put(uint64(i), hashes[i])
			if idx.Contains(hashes[i]) {
				replaySink++
			}
		}
	}))
}
