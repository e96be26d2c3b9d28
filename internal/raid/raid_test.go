package raid

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"prins/internal/block"
	"prins/internal/parity"
)

func newArray(t *testing.T, level Level, members int, blockSize int, perMember uint64) *Array {
	t.Helper()
	stores := make([]block.Store, members)
	for i := range stores {
		s, err := block.NewMem(blockSize, perMember)
		if err != nil {
			t.Fatal(err)
		}
		stores[i] = s
	}
	a, err := New(level, stores)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestNewValidation(t *testing.T) {
	mem := func(bs int, nb uint64) block.Store {
		s, _ := block.NewMem(bs, nb)
		return s
	}
	tests := []struct {
		name    string
		level   Level
		members []block.Store
	}{
		{name: "bad level", level: Level(9), members: []block.Store{mem(512, 4), mem(512, 4), mem(512, 4)}},
		{name: "too few members", level: Level5, members: []block.Store{mem(512, 4), mem(512, 4)}},
		{name: "geometry mismatch", level: Level5, members: []block.Store{mem(512, 4), mem(512, 4), mem(256, 4)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := New(tt.level, tt.members); !errors.Is(err, ErrBadConfig) {
				t.Errorf("err = %v, want ErrBadConfig", err)
			}
		})
	}
}

func TestGeometry(t *testing.T) {
	a := newArray(t, Level5, 4, 512, 16)
	if a.BlockSize() != 512 {
		t.Errorf("BlockSize = %d", a.BlockSize())
	}
	if a.NumBlocks() != 3*16 {
		t.Errorf("NumBlocks = %d, want 48", a.NumBlocks())
	}
	if a.Members() != 4 || a.Level() != Level5 {
		t.Error("member/level accessors wrong")
	}
	if Level4.String() != "RAID-4" || Level5.String() != "RAID-5" {
		t.Error("level strings wrong")
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	for _, level := range []Level{Level4, Level5} {
		t.Run(level.String(), func(t *testing.T) {
			a := newArray(t, level, 4, 256, 32)
			defer a.Close()
			rng := rand.New(rand.NewSource(1))

			// Write every LBA, then read everything back.
			want := make(map[uint64][]byte)
			for lba := uint64(0); lba < a.NumBlocks(); lba++ {
				data := make([]byte, 256)
				rng.Read(data)
				if err := a.WriteBlock(lba, data); err != nil {
					t.Fatalf("write %d: %v", lba, err)
				}
				want[lba] = data
			}
			buf := make([]byte, 256)
			for lba, w := range want {
				if err := a.ReadBlock(lba, buf); err != nil {
					t.Fatalf("read %d: %v", lba, err)
				}
				if !bytes.Equal(buf, w) {
					t.Fatalf("lba %d mismatch", lba)
				}
			}

			// Parity must be consistent everywhere.
			if bad, ok, err := a.Verify(); err != nil || !ok {
				t.Errorf("Verify: stripe %d inconsistent (err=%v)", bad, err)
			}
		})
	}
}

func TestWriteBlockWithParity(t *testing.T) {
	a := newArray(t, Level5, 4, 128, 8)
	defer a.Close()
	rng := rand.New(rand.NewSource(2))

	oldData := make([]byte, 128)
	rng.Read(oldData)
	if err := a.WriteBlock(5, oldData); err != nil {
		t.Fatal(err)
	}

	newData := make([]byte, 128)
	rng.Read(newData)
	fp, err := a.WriteBlockWithParity(5, newData)
	if err != nil {
		t.Fatal(err)
	}

	// fp must equal new XOR old — the exact block PRINS replicates.
	want, err := parity.Forward(newData, oldData)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fp, want) {
		t.Error("forward parity from RAID write path is wrong")
	}

	// And the write itself reached the array.
	got := make([]byte, 128)
	if err := a.ReadBlock(5, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, newData) {
		t.Error("data write lost")
	}
	if _, ok, err := a.Verify(); err != nil || !ok {
		t.Error("parity inconsistent after WriteBlockWithParity")
	}
}

func TestDegradedReadAndRebuild(t *testing.T) {
	for _, level := range []Level{Level4, Level5} {
		t.Run(level.String(), func(t *testing.T) {
			a := newArray(t, level, 4, 128, 16)
			defer a.Close()
			rng := rand.New(rand.NewSource(3))

			want := make([][]byte, a.NumBlocks())
			for lba := range want {
				want[lba] = make([]byte, 128)
				rng.Read(want[lba])
				if err := a.WriteBlock(uint64(lba), want[lba]); err != nil {
					t.Fatal(err)
				}
			}

			// Fail each member in turn (healing in between).
			for idx := 0; idx < a.Members(); idx++ {
				if err := a.FailMember(idx); err != nil {
					t.Fatal(err)
				}

				// All data remains readable (degraded).
				buf := make([]byte, 128)
				for lba := range want {
					if err := a.ReadBlock(uint64(lba), buf); err != nil {
						t.Fatalf("degraded read lba %d with member %d down: %v", lba, idx, err)
					}
					if !bytes.Equal(buf, want[lba]) {
						t.Fatalf("degraded read lba %d wrong with member %d down", lba, idx)
					}
				}

				// Writes while degraded must survive the rebuild.
				rng.Read(want[idx])
				if err := a.WriteBlock(uint64(idx), want[idx]); err != nil {
					t.Fatalf("degraded write: %v", err)
				}

				replacement, err := block.NewMem(128, 16)
				if err != nil {
					t.Fatal(err)
				}
				if err := a.Rebuild(replacement); err != nil {
					t.Fatalf("rebuild member %d: %v", idx, err)
				}
				for lba := range want {
					if err := a.ReadBlock(uint64(lba), buf); err != nil {
						t.Fatalf("post-rebuild read: %v", err)
					}
					if !bytes.Equal(buf, want[lba]) {
						t.Fatalf("post-rebuild lba %d wrong after member %d cycle", lba, idx)
					}
				}
				if _, ok, err := a.Verify(); err != nil || !ok {
					t.Fatalf("parity inconsistent after rebuild of member %d", idx)
				}
			}
		})
	}
}

func TestDoubleFailureRejected(t *testing.T) {
	a := newArray(t, Level5, 4, 128, 8)
	defer a.Close()
	if err := a.FailMember(0); err != nil {
		t.Fatal(err)
	}
	if err := a.FailMember(1); !errors.Is(err, ErrTooManyDown) {
		t.Errorf("second failure: err = %v, want ErrTooManyDown", err)
	}
	if err := a.FailMember(0); err != nil {
		t.Errorf("re-failing same member should be idempotent: %v", err)
	}
	if err := a.FailMember(99); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad index: err = %v", err)
	}
	if _, _, err := a.Verify(); !errors.Is(err, ErrMemberDown) {
		t.Errorf("Verify while degraded: err = %v, want ErrMemberDown", err)
	}
}

func TestRebuildValidation(t *testing.T) {
	a := newArray(t, Level4, 3, 128, 8)
	defer a.Close()
	repl, _ := block.NewMem(128, 8)
	if err := a.Rebuild(repl); err == nil {
		t.Error("rebuild with no failure: want error")
	}
	if err := a.FailMember(1); err != nil {
		t.Fatal(err)
	}
	tooSmall, _ := block.NewMem(128, 4)
	if err := a.Rebuild(tooSmall); !errors.Is(err, ErrBadConfig) {
		t.Errorf("bad replacement geometry: err = %v", err)
	}
}

func TestIOValidation(t *testing.T) {
	a := newArray(t, Level5, 3, 128, 8)
	defer a.Close()
	buf := make([]byte, 128)
	if err := a.ReadBlock(a.NumBlocks(), buf); !errors.Is(err, block.ErrOutOfRange) {
		t.Errorf("OOB read: %v", err)
	}
	if err := a.WriteBlock(0, buf[:5]); !errors.Is(err, block.ErrBadBufSize) {
		t.Errorf("bad size write: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.ReadBlock(0, buf); !errors.Is(err, block.ErrClosed) {
		t.Errorf("read after close: %v", err)
	}
	if err := a.Close(); err != nil {
		t.Error("double close should be nil")
	}
}

// TestParityRotation ensures RAID-5 actually spreads parity across
// members (RAID-4 concentrates it on the last).
func TestParityRotation(t *testing.T) {
	a := newArray(t, Level5, 4, 128, 16)
	defer a.Close()
	seen := make(map[int]bool)
	n := uint64(len(a.members))
	for stripe := uint64(0); stripe < 8; stripe++ {
		pm := int((n - 1 - stripe%n) % n)
		seen[pm] = true
	}
	if len(seen) != 4 {
		t.Errorf("RAID-5 parity visited %d members over 8 stripes, want 4", len(seen))
	}
}
