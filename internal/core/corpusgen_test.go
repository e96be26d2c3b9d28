package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"prins/internal/block"
	"prins/internal/iscsi"
)

// capturingClient records every replication frame and its on-the-wire
// PDU encoding while forwarding to a real replica, so the fuzz corpora
// are seeded with frames a live engine actually produced.
type capturingClient struct {
	inner  ReplicaClient
	frames [][]byte
	pdus   [][]byte
}

func (c *capturingClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	cp := append([]byte(nil), frame...)
	c.frames = append(c.frames, cp)
	var buf bytes.Buffer
	p := iscsi.PDU{Op: iscsi.OpReplicaWrite, ITT: uint32(len(c.pdus) + 1),
		Mode: mode, Seq: seq, LBA: lba, Data: cp}
	if _, err := p.WriteTo(&buf); err == nil {
		c.pdus = append(c.pdus, buf.Bytes())
	}
	return c.inner.ReplicaWriteStream(mode, shard, vol, seq, lba, hash, frame)
}

// writeCorpusFile emits one seed in the "go test fuzz v1" format the
// native fuzzer reads from testdata/fuzz/<FuzzName>/.
func writeCorpusFile(t *testing.T, dir, name string, data []byte) {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRegenerateFuzzCorpus rebuilds the checked-in seed corpora for
// iscsi.FuzzReadPDU and xcode.FuzzDecode from a real engine run in
// every replication mode. Skipped unless PRINS_REGEN_CORPUS=1 — it
// exists to regenerate testdata, not to verify behaviour. (It lives
// here because core may import iscsi and xcode, never the reverse.)
func TestRegenerateFuzzCorpus(t *testing.T) {
	if os.Getenv("PRINS_REGEN_CORPUS") == "" {
		t.Skip("set PRINS_REGEN_CORPUS=1 to regenerate the seed corpora")
	}
	const (
		pduDir   = "../iscsi/testdata/fuzz/FuzzReadPDU"
		frameDir = "../xcode/testdata/fuzz/FuzzDecode"
		perMode  = 3
	)

	for _, mode := range AllModes() {
		primary, err := block.NewMem(1024, 32)
		if err != nil {
			t.Fatal(err)
		}
		replicaStore, err := block.NewMem(1024, 32)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(primary, Config{Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		cap := &capturingClient{inner: &Loopback{Replica: NewReplicaEngine(replicaStore)}}
		e.AttachReplica(cap)
		writeWorkload(t, e, 2026, 24)
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
		if len(cap.frames) < perMode {
			t.Fatalf("%s: captured only %d frames", mode, len(cap.frames))
		}

		// First frames plus the largest one, for size diversity.
		picks := make(map[int]bool)
		for i := 0; i < perMode; i++ {
			picks[i] = true
		}
		largest := 0
		for i, f := range cap.frames {
			if len(f) > len(cap.frames[largest]) {
				largest = i
			}
		}
		picks[largest] = true

		for i := range picks {
			name := "engine-" + mode.String() + "-" + strconv.Itoa(i)
			writeCorpusFile(t, pduDir, name, cap.pdus[i])
			writeCorpusFile(t, frameDir, name, cap.frames[i])
		}
	}

	// A few non-replication PDUs round out the protocol corpus.
	for name, p := range map[string]iscsi.PDU{
		"cmd-read":  {Op: iscsi.OpReadCmd, ITT: 9, LBA: 17, Blocks: 4},
		"cmd-write": {Op: iscsi.OpWriteCmd, ITT: 10, LBA: 3, Data: bytes.Repeat([]byte{0xa5}, 64)},
		"cmd-nop":   {Op: iscsi.OpNop, ITT: 11},
	} {
		var buf bytes.Buffer
		if _, err := p.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		writeCorpusFile(t, pduDir, name, buf.Bytes())
	}
}
