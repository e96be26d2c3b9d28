package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"prins/internal/block"
	"prins/internal/core"
)

// recordQuick records quickTPCC's measured phase at 4 KB blocks to a
// trace file and returns its path and the writes recorded.
func recordQuick(t *testing.T) (string, int64) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "quick.trace")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := Record(quickTPCC(), 4096, f)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path, n
}

// replayOver replays the trace at path over the device its Workload
// sets up: the device the trace was recorded on.
type replayOver struct {
	Workload
	path string
}

func (w replayOver) Run(store block.Store) error { return TraceWorkload{w.path}.Run(store) }

// TestTraceReplayMatchesLiveRun records a workload's write stream and
// checks that (a) replaying it over the device the workload set up
// reproduces the live run's final state exactly, and (b) a trace cell
// — the same replay through the harness's engine and replicas — ships
// exactly what the live cell shipped in every mode: the property that
// makes recorded traces valid benchmark inputs.
func TestTraceReplayMatchesLiveRun(t *testing.T) {
	const blockSize = 4096
	w := quickTPCC()
	path, recorded := recordQuick(t)

	// (a) A live run and a replay of the trace, each over a freshly set
	// up device, end identical.
	device := func() *block.SparseStore {
		s, err := block.NewSparse(blockSize, deviceBytes/blockSize)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Setup(s); err != nil {
			t.Fatal(err)
		}
		return s
	}
	live, replayed := device(), device()
	if err := w.Run(live); err != nil {
		t.Fatal(err)
	}
	if err := (replayOver{w, path}).Run(replayed); err != nil {
		t.Fatal(err)
	}
	if err := sameBlocks(live, replayed); err != nil {
		t.Fatalf("trace replay did not reproduce the live final state: %v", err)
	}

	// (b) The trace cell and the live cell agree write for write and
	// byte for byte.
	r := &Runner{}
	for _, mode := range core.AllModes() {
		liveRes, err := r.Run(Cell{Workload: w, Mode: mode, BlockSize: blockSize, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		traceRes, err := r.Run(Cell{Workload: replayOver{w, path}, Mode: mode, BlockSize: blockSize, Replicas: 1})
		if err != nil {
			t.Fatal(err)
		}
		l, tr := liveRes.Traffic, traceRes.Traffic
		if tr.Writes != recorded || l.Writes != recorded {
			t.Errorf("%v: %d writes recorded, live cell saw %d, trace cell %d", mode, recorded, l.Writes, tr.Writes)
		}
		if tr.PayloadBytes != l.PayloadBytes || tr.WireBytes != l.WireBytes || tr.Replicated != l.Replicated {
			t.Errorf("%v: trace cell shipped %d B in %d pushes, live cell %d B in %d", mode,
				tr.PayloadBytes, tr.Replicated, l.PayloadBytes, l.Replicated)
		}
		if mode == core.ModePRINS && 3*tr.PayloadBytes > recorded*blockSize {
			t.Errorf("replayed PRINS payload %d not clearly below raw %d", tr.PayloadBytes, recorded*blockSize)
		}
	}
}

// TestCellDivergenceFails: a cell one of whose two replicas does not
// end identical to the primary is an error that names that replica, for
// a figure cell and for a trace-replay cell alike. Replica 1's store is
// corrupted after the initial sync, in a block no workload writes.
func TestCellDivergenceFails(t *testing.T) {
	path, _ := recordQuick(t)
	corrupt := func(replicas []*block.SparseStore) {
		last := replicas[1].NumBlocks() - 1
		if err := replicas[1].WriteBlock(last, bytes.Repeat([]byte{0xA5}, replicas[1].BlockSize())); err != nil {
			t.Fatal(err)
		}
	}
	for _, w := range []Workload{quickTPCC(), TraceWorkload{Path: path}} {
		c := Cell{Workload: w, Mode: core.ModePRINS, BlockSize: 4096, Replicas: 2}
		if _, err := c.run(nil); err != nil {
			t.Fatalf("%s: an untouched cell failed: %v", w.Name(), err)
		}
		_, err := c.run(corrupt)
		if err == nil || !strings.Contains(err.Error(), "replica 1 diverged") {
			t.Errorf("%s: a diverged replica 1 gave %v", w.Name(), err)
		}
	}
}
