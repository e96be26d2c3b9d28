package resync

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"

	"prins/internal/block"
	"prins/internal/iscsi"
	"prins/internal/wan"
)

// opConn counts the PDUs an initiator writes to its connection, by
// opcode.
type opConn struct {
	net.Conn
	mu      sync.Mutex
	pending []byte
	ops     map[iscsi.Opcode]int
}

func (c *opConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.pending = append(c.pending, p...)
	for len(c.pending) >= 48 {
		n := int(binary.BigEndian.Uint32(c.pending[24:]))
		if len(c.pending) < 48+n {
			break
		}
		c.ops[iscsi.Opcode(c.pending[2])]++
		c.pending = c.pending[48+n:]
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *opConn) count(op iscsi.Opcode) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ops[op]
}

// logBackend is a StoreBackend that records the blocks the target read
// (a hash command reads each block of its units) and the extents it
// wrote, in order.
type logBackend struct {
	iscsi.StoreBackend
	mu     sync.Mutex
	reads  uint64
	writes []block.Range
}

func (b *logBackend) HandleRead(lba uint64, dst []byte) iscsi.Status {
	b.mu.Lock()
	b.reads += uint64(len(dst) / b.Store.BlockSize())
	b.mu.Unlock()
	return b.StoreBackend.HandleRead(lba, dst)
}

func (b *logBackend) HandleWrite(lba uint64, data []byte) iscsi.Status {
	st := b.StoreBackend.HandleWrite(lba, data)
	if st == iscsi.StatusOK {
		b.mu.Lock()
		b.writes = append(b.writes, block.Range{Start: lba, Count: uint64(len(data) / b.Store.BlockSize())})
		b.mu.Unlock()
	}
	return st
}

// fillBlock fills buf with text (lines of words from a small
// vocabulary, which xcode.Compressible passes) or with random bytes.
func fillBlock(rng *rand.Rand, buf []byte, text bool) {
	if !text {
		rng.Read(buf)
		return
	}
	words := []string{"block", "replica", "parity", "write", "the", "of", "a", "span", "hash", "range"}
	line := buf[:0]
	for len(line) < len(buf) {
		line = append(line, words[rng.Intn(len(words))]...)
		line = append(line, " \n"[rng.Intn(2)])
	}
	copy(buf, line[:len(buf)])
}

// TestResyncDirtyUnitsUnasked: the blocks of Dirty ranges ship without
// a hash command, the rest are compared as before, and an unasked pass
// ends where an asked one does. Over text and over random data, the
// same ranges are resynced onto three replicas in the same diverged
// state: unmarked (asked), with some marked (mixed: a marked range
// overlapping an unmarked one, another touching one, blocks in the
// marked ones that already match the replica), and all marked. All
// three end byte-identical to the primary and learn the same (lba,
// hash) set. The mixed pass has the replica read exactly the unmarked
// blocks (a hash command reads every block of its units) and the all
// marked one sends no hash command at all; every repaired block lands
// on the replica once. A DryRun over marked ranges still asks and writes
// nothing, and a cancel in the middle of a marked pass returns Stats
// that count exactly what the replica applied.
func TestResyncDirtyUnitsUnasked(t *testing.T) {
	const bs, nb = 512, 600
	u := func(start, count uint64) block.Range { return block.Range{Start: start, Count: count} }
	m := func(start, count uint64) block.Range { return block.Range{Start: start, Count: count, Dirty: true} }
	mixed := []block.Range{
		m(10, 40),              // blocks 45..49 already match
		m(100, 30), u(120, 40), // overlapping: 100..129 marked, 130..159 asked
		u(220, 40), m(200, 20), // touching, given out of order
		u(300, 40),
		m(580, 40), // clamped at the device's end
	}
	diverged := map[uint64]bool{}
	for _, r := range []block.Range{u(10, 35), u(100, 51), u(205, 36), u(310, 2), u(590, 10)} {
		for lba := r.Start; lba < r.End(); lba++ {
			diverged[lba] = true
		}
	}
	delete(diverged, 105)
	delete(diverged, 106)

	var asked, marked []block.Range
	for _, r := range mixed {
		asked = append(asked, block.Range{Start: r.Start, Count: r.Count})
		marked = append(marked, block.Range{Start: r.Start, Count: r.Count, Dirty: true})
	}
	var covered, markedBlocks, askedRepairs uint64
	for _, r := range block.NormalizeRanges(mixed, nb) {
		covered += r.Count
		for lba := r.Start; lba < r.End(); lba++ {
			switch {
			case r.Dirty:
				markedBlocks++
			case diverged[lba]:
				askedRepairs++
			}
		}
	}
	var divergedCovered uint64
	for _, r := range block.NormalizeRanges(asked, nb) {
		for lba := r.Start; lba < r.End(); lba++ {
			if diverged[lba] {
				divergedCovered++
			}
		}
	}

	for _, text := range []bool{true, false} {
		t.Run(map[bool]string{true: "text", false: "random"}[text], func(t *testing.T) {
			rng := rand.New(rand.NewSource(9))
			local, err := block.NewMem(bs, nb)
			if err != nil {
				t.Fatal(err)
			}
			buf := make([]byte, bs)
			for lba := uint64(0); lba < nb; lba++ {
				fillBlock(rng, buf, text)
				if err := local.WriteBlock(lba, buf); err != nil {
					t.Fatal(err)
				}
			}
			rot := make(map[uint64][]byte, len(diverged))
			for lba := range diverged {
				rot[lba] = make([]byte, bs)
				fillBlock(rng, rot[lba], text)
			}
			newReplica := func() block.Store {
				replica, err := block.NewMem(bs, nb)
				if err != nil {
					t.Fatal(err)
				}
				if err := block.Copy(replica, local); err != nil {
					t.Fatal(err)
				}
				for lba, data := range rot {
					if err := replica.WriteBlock(lba, data); err != nil {
						t.Fatal(err)
					}
				}
				return replica
			}
			type pass struct {
				stats   Stats
				learned map[uint64]uint64
				hashOps int
				backend *logBackend
			}
			run := func(store block.Store, cfg Config, ranges []block.Range) (pass, error) {
				replica := newReplica()
				p := pass{learned: map[uint64]uint64{}, backend: &logBackend{StoreBackend: iscsi.StoreBackend{Store: replica}}}
				var conn *opConn
				remote := session(t, p.backend, func(c net.Conn) net.Conn {
					conn = &opConn{Conn: c, ops: map[iscsi.Opcode]int{}}
					return conn
				})
				cfg.Learn = func(lba, hash uint64) {
					if _, dup := p.learned[lba]; dup {
						t.Errorf("block %d learned twice", lba)
					}
					p.learned[lba] = hash
				}
				var err error
				p.stats, err = RunRanges(store, remote, cfg, ranges...)
				p.hashOps = conn.count(iscsi.OpHashCmd)
				if int64(p.hashOps) != p.stats.HashFetches {
					t.Errorf("%d hash commands on the connection, %d counted", p.hashOps, p.stats.HashFetches)
				}
				// Every block repaired lands once.
				applied := block.CountBlocks(p.backend.writes)
				if block.CountBlocks(block.NormalizeRanges(p.backend.writes, nb)) != applied || !cfg.DryRun && applied != p.stats.BlocksRepaired {
					t.Errorf("the replica applied %d blocks in %d extents for %d repaired", applied, len(p.backend.writes), p.stats.BlocksRepaired)
				}
				return p, err
			}

			passes := map[string]pass{}
			for _, tc := range []struct {
				name                  string
				ranges                []block.Range
				repaired, replicaRead uint64
			}{
				{"asked", asked, divergedCovered, covered},
				{"mixed", mixed, markedBlocks + askedRepairs, covered - markedBlocks},
				{"marked", marked, covered, 0},
			} {
				p, err := run(local, Config{}, tc.ranges)
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				passes[tc.name] = p
				st := p.stats
				t.Logf("%s: scanned %d, repaired %d in %d spans, %d hash commands, %d B hashes, %d B sent",
					tc.name, st.BlocksScanned, st.BlocksRepaired, st.RepairWrites, st.HashFetches, st.HashBytes, st.SentBytes)
				if st.BlocksScanned != covered || st.BlocksRepaired != tc.repaired || p.backend.reads != tc.replicaRead {
					t.Errorf("%s: scanned %d, repaired %d, the replica read %d; want %d, %d, %d",
						tc.name, st.BlocksScanned, st.BlocksRepaired, p.backend.reads, covered, tc.repaired, tc.replicaRead)
				}
				if (tc.replicaRead == 0) != (st.HashFetches == 0) {
					t.Errorf("%s: %d hash commands for %d asked blocks", tc.name, st.HashFetches, tc.replicaRead)
				}
				if eq, err := block.Equal(local, p.backend.Store); err != nil || !eq {
					t.Errorf("%s: replica differs from the primary (err %v)", tc.name, err)
				}
				if len(p.learned) != int(covered) {
					t.Errorf("%s: learned %d blocks, want %d", tc.name, len(p.learned), covered)
				}
				for lba, hash := range passes["asked"].learned {
					if p.learned[lba] != hash {
						t.Errorf("%s: block %d learned as %x, the asked pass %x", tc.name, lba, p.learned[lba], hash)
					}
				}
			}

			// A dry run asks about marked ranges too, and writes nothing.
			dry, err := run(local, Config{DryRun: true}, marked)
			if err != nil {
				t.Fatal(err)
			}
			if dry.hashOps == 0 || dry.backend.reads != covered || len(dry.backend.writes) != 0 ||
				dry.stats.BlocksScanned != covered || dry.stats.BlocksRepaired != divergedCovered || len(dry.learned) != int(covered-divergedCovered) {
				t.Errorf("dry run over marked ranges: %d hash commands, the replica read %d and wrote %d extents, %+v, learned %d",
					dry.hashOps, dry.backend.reads, len(dry.backend.writes), dry.stats, len(dry.learned))
			}
			if eq, _ := block.Equal(local, dry.backend.Store); eq {
				t.Error("dry run repaired the replica")
			}

			// A cancel in the middle of a marked pass. A span is a 64 KiB
			// stretch, 128 blocks: the first, 10..137, went out with its 78
			// marked blocks, and the second, from 138, had taken 42 when
			// the cancel fired on the pass's 120th read. The run stops
			// before its next read, waits the first span out and counts it.
			cancel := make(chan struct{})
			gated := &cancelStore{Store: local, after: 120, cancel: cancel}
			cut, err := run(gated, Config{Cancel: cancel}, marked)
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("cancel: err = %v, want ErrCanceled", err)
			}
			st := cut.stats
			if applied := block.CountBlocks(cut.backend.writes); st.BlocksScanned != 120 || st.BlocksRepaired != 78 ||
				st.RepairWrites != 1 || st.HashFetches != 0 || applied != 78 || len(cut.learned) != 78 ||
				st.DataBytes != 78*bs || st.WireBytes != int64(wan.WireBytesDiscrete(int(st.SentBytes))) {
				t.Errorf("canceled pass: %+v, learned %d; the replica applied %d blocks, want 120 scanned, 78 repaired in 1 span",
					st, len(cut.learned), applied)
			}
			remote := session(t, &iscsi.StoreBackend{Store: cut.backend.Store}, nil)
			if _, err := RunRanges(local, remote, Config{}, marked...); err != nil {
				t.Fatal(err)
			}
			if eq, _ := block.Equal(local, cut.backend.Store); !eq {
				t.Error("replica differs after the canceled pass was rerun")
			}
		})
	}
}
