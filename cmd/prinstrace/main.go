// Command prinstrace captures block-write traces (with contents — the
// paper notes address-only I/O traces are useless for evaluating
// PRINS) and replays them through the replication engine, so one
// recorded workload can be compared across techniques on a perfectly
// identical write stream.
//
//	prinstrace record -workload tpcc -bs 8192 -n 500 -out tpcc.trace
//	prinstrace info   -in tpcc.trace
//	prinstrace replay -in tpcc.trace -mode prins
//	prinstrace replay -in tpcc.trace -mode traditional
//
// A replay is a cell of internal/experiments' runner: the trace
// replays onto a blank device replicating to -replicas in-process
// replicas, each of which must end identical to the primary.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"prins/internal/core"
	"prins/internal/experiments"
	"prins/internal/memfs"
	"prins/internal/metrics"
	"prins/internal/tpcc"
	"prins/internal/tpcw"
	"prins/internal/trace"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prinstrace:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) < 1 {
		return errors.New("want a command: record, info, replay")
	}
	switch cmd := args[0]; cmd {
	case "record":
		return record(args[1:])
	case "info":
		return info(args[1:])
	case "replay":
		return replay(args[1:])
	default:
		return fmt.Errorf("unknown command %q (want record, info, replay)", cmd)
	}
}

// pickWorkload builds a named experiment workload.
func pickWorkload(name string, n int, seed int64) (experiments.Workload, error) {
	switch name {
	case "tpcc":
		return experiments.TPCCWorkload{Label: "tpcc", Scale: tpcc.DefaultScale(2), Transactions: n, Seed: seed}, nil
	case "tpcw":
		return experiments.TPCWWorkload{Config: tpcw.DefaultConfig(), Interactions: n, Seed: seed}, nil
	case "micro":
		return experiments.MicroWorkload{Config: memfs.DefaultMicroBenchmark(), Rounds: n, Seed: seed}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want tpcc, tpcw, micro)", name)
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	var (
		workload = fs.String("workload", "tpcc", "tpcc, tpcw, or micro")
		bs       = fs.Int("bs", 8192, "block size in bytes")
		n        = fs.Int("n", 300, "transactions / interactions / rounds")
		seed     = fs.Int64("seed", 1, "workload seed")
		out      = fs.String("out", "workload.trace", "output trace file")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	w, err := pickWorkload(*workload, *n, *seed)
	if err != nil {
		return err
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	start := time.Now()
	count, err := experiments.Record(w, *bs, f)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("recorded %d writes (%dB blocks) in %v -> %s (%d bytes compressed)\n",
		count, *bs, time.Since(start).Round(time.Millisecond), *out, st.Size())
	return nil
}

func info(args []string) error {
	fs := flag.NewFlagSet("info", flag.ContinueOnError)
	in := fs.String("in", "workload.trace", "trace file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var count int64
	var maxLBA uint64
	touched := make(map[uint64]bool)
	bs, err := scan(*in, func(lba uint64) {
		count++
		touched[lba] = true
		maxLBA = max(maxLBA, lba)
	})
	if err != nil {
		return err
	}
	rewrites := count - int64(len(touched))
	fmt.Printf("%s: block size %dB, %d writes over %d distinct blocks (max LBA %d)\n",
		*in, bs, count, len(touched), maxLBA)
	fmt.Printf("rewrites (same block written again): %d (%.1f%% of writes)\n",
		rewrites, 100*float64(rewrites)/float64(count))
	return nil
}

// scan reads the trace at path, calls each with the LBA of every write
// in it unless each is nil, and returns the trace's block size.
func scan(path string, each func(lba uint64)) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	r, err := trace.NewReader(f)
	if err != nil {
		return 0, err
	}
	defer r.Close()
	for each != nil {
		lba, _, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return 0, err
		}
		each(lba)
	}
	return r.BlockSize(), nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	var (
		in       = fs.String("in", "workload.trace", "trace file")
		mode     = fs.String("mode", "prins", "prins, traditional, or compressed")
		replicas = fs.Int("replicas", 1, "replica count")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	var m core.Mode
	for _, c := range core.AllModes() {
		if c.String() == *mode {
			m = c
		}
	}
	if m == 0 {
		return fmt.Errorf("unknown mode %q", *mode)
	}
	if *replicas < 1 {
		return fmt.Errorf("replicas %d < 1", *replicas)
	}
	bs, err := scan(*in, nil)
	if err != nil {
		return err
	}
	// The trace replays onto a blank device through the harness's
	// engine and replicas, which must converge.
	var r experiments.Runner
	res, err := r.Run(experiments.Cell{Workload: experiments.TraceWorkload{Path: *in}, Mode: m, BlockSize: bs, Replicas: *replicas})
	if err != nil {
		return err
	}
	snap := res.Traffic
	fmt.Printf("replayed %d writes in %s mode to %d replica(s)\n", snap.Writes, m, *replicas)
	fmt.Printf("payload shipped: %s  (raw blocks: %s, %.1fx savings)\n",
		metrics.FormatBytes(snap.PayloadBytes), metrics.FormatBytes(snap.RawBytes), snap.SavingsVsRaw())
	fmt.Printf("modelled wire:   %s  mean payload/write: %.0fB\n",
		metrics.FormatBytes(snap.WireBytes), snap.MeanPayload())
	return nil
}
