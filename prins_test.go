package prins_test

import (
	"bytes"
	"math/rand"
	"testing"

	"prins"
)

func TestPublicAPIInProcess(t *testing.T) {
	for _, mode := range []prins.Mode{prins.ModeTraditional, prins.ModeCompressed, prins.ModePRINS} {
		t.Run(mode.String(), func(t *testing.T) {
			local, err := prins.NewMemStore(4096, 64)
			if err != nil {
				t.Fatal(err)
			}
			replicaStore, err := prins.NewMemStore(4096, 64)
			if err != nil {
				t.Fatal(err)
			}
			replica := prins.NewReplica(replicaStore)
			primary, err := prins.NewPrimary(local, prins.Config{Mode: mode, RecordDensity: mode == prins.ModePRINS})
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Close()
			primary.AttachReplica(replica)

			rng := rand.New(rand.NewSource(1))
			buf := make([]byte, 4096)
			for i := 0; i < 100; i++ {
				lba := uint64(rng.Intn(64))
				if err := primary.ReadBlock(lba, buf); err != nil {
					t.Fatal(err)
				}
				off := rng.Intn(3500)
				rng.Read(buf[off : off+400])
				if err := primary.WriteBlock(lba, buf); err != nil {
					t.Fatal(err)
				}
			}
			if err := primary.Drain(); err != nil {
				t.Fatal(err)
			}

			eq, err := prins.Equal(primary, replica.Store())
			if err != nil {
				t.Fatal(err)
			}
			if !eq {
				t.Fatal("replica diverged")
			}

			s := primary.Stats()
			if s.Writes != 100 || s.Replicated != 100 {
				t.Errorf("stats: %+v", s)
			}
			if mode == prins.ModePRINS {
				if s.SavingsVsRaw < 3 {
					t.Errorf("PRINS savings = %.1fx, want > 3x", s.SavingsVsRaw)
				}
				if s.MeanChangedFraction <= 0 || s.MeanChangedFraction > 0.3 {
					t.Errorf("mean changed fraction = %.3f", s.MeanChangedFraction)
				}
			}
			if replica.AppliedWrites() != 100 {
				t.Errorf("replica applied %d", replica.AppliedWrites())
			}
		})
	}
}

func TestPublicAPIOverTCP(t *testing.T) {
	// Replica node.
	replicaStore, err := prins.NewMemStore(1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	replica := prins.NewReplica(replicaStore)
	rAddr, err := replica.Serve("127.0.0.1:0", "vol0")
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()

	// Primary node replicating to it.
	local, err := prins.NewMemStore(1024, 32)
	if err != nil {
		t.Fatal(err)
	}
	primary, err := prins.NewPrimary(local, prins.Config{Mode: prins.ModePRINS, Async: true})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	if err := primary.AttachReplicaAddr(rAddr.String(), "vol0"); err != nil {
		t.Fatal(err)
	}
	pAddr, err := primary.Serve("127.0.0.1:0", "vol0")
	if err != nil {
		t.Fatal(err)
	}

	// Application mounts the primary remotely.
	app, err := prins.Dial(pAddr.String(), "vol0")
	if err != nil {
		t.Fatal(err)
	}
	defer app.Close()
	if app.BlockSize() != 1024 || app.NumBlocks() != 32 {
		t.Fatalf("mounted geometry %d x %d", app.NumBlocks(), app.BlockSize())
	}

	data := bytes.Repeat([]byte{0x42}, 1024)
	for lba := uint64(0); lba < 8; lba++ {
		data[0] = byte(lba)
		if err := app.WriteBlock(lba, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Drain(); err != nil {
		t.Fatal(err)
	}

	eq, err := prins.Equal(local, replicaStore)
	if err != nil {
		t.Fatal(err)
	}
	if !eq {
		t.Fatal("replica diverged across TCP")
	}
	if err := app.Logout(); err != nil {
		t.Fatal(err)
	}

	// Geometry mismatch detection.
	tiny, _ := prins.NewMemStore(512, 8)
	p2, err := prins.NewPrimary(tiny, prins.Config{Mode: prins.ModePRINS})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if err := p2.AttachReplicaAddr(rAddr.String(), "vol0"); err == nil {
		t.Error("mismatched geometry attach accepted")
	}
}

func TestInitialSync(t *testing.T) {
	local, _ := prins.NewMemStore(512, 16)
	// Pre-populate the primary before replication is set up.
	seed := bytes.Repeat([]byte{7}, 512)
	for lba := uint64(0); lba < 16; lba++ {
		if err := local.WriteBlock(lba, seed); err != nil {
			t.Fatal(err)
		}
	}

	primary, err := prins.NewPrimary(local, prins.Config{Mode: prins.ModePRINS})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	replicaStore, _ := prins.NewMemStore(512, 16)
	replica := prins.NewReplica(replicaStore)

	// Without the initial sync, PRINS parity would reconstruct against
	// the wrong old data. With it, everything converges.
	if err := primary.InitialSync(replica); err != nil {
		t.Fatal(err)
	}
	primary.AttachReplica(replica)

	update := bytes.Repeat([]byte{9}, 512)
	if err := primary.WriteBlock(3, update); err != nil {
		t.Fatal(err)
	}
	if err := primary.Drain(); err != nil {
		t.Fatal(err)
	}
	eq, _ := prins.Equal(primary, replica.Store())
	if !eq {
		t.Fatal("replica diverged after initial sync + update")
	}
}

func TestBadConfig(t *testing.T) {
	local, _ := prins.NewMemStore(512, 8)
	if _, err := prins.NewPrimary(local, prins.Config{}); err == nil {
		t.Error("zero config accepted")
	}
}

func TestDialErrors(t *testing.T) {
	if _, err := prins.Dial("127.0.0.1:1", "x"); err == nil {
		t.Error("dial to dead port succeeded")
	}
	replicaStore, _ := prins.NewMemStore(512, 8)
	replica := prins.NewReplica(replicaStore)
	addr, err := replica.Serve("127.0.0.1:0", "real")
	if err != nil {
		t.Fatal(err)
	}
	defer replica.Close()
	if _, err := prins.Dial(addr.String(), "wrong-name"); err == nil {
		t.Error("dial to wrong export succeeded")
	}
}

// TestAttachReplicaGeometry: an in-process replica is held to the same
// geometry as one attached by address — the primary's block size for a
// mirror, the unit size for a group member, and at least the primary's
// block count — so a mis-sized device is refused at attach instead of
// attaching and then refusing every push it is sent.
func TestAttachReplicaGeometry(t *testing.T) {
	for _, tc := range []struct {
		name       string
		k, n       int
		bs, wantBS int
	}{
		{"mirror", 0, 0, 512, 512},
		{"2-of-3 group", 2, 3, 512, 256},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nb = 16
			local, _ := prins.NewMemStore(tc.bs, nb)
			primary, err := prins.NewPrimary(local, prins.Config{Mode: prins.ModePRINS, GroupK: tc.k, GroupN: tc.n})
			if err != nil {
				t.Fatal(err)
			}
			defer primary.Close()
			for _, bad := range []struct {
				bs int
				nb uint64
			}{{tc.wantBS * 2, nb}, {tc.wantBS / 2, nb}, {tc.wantBS, nb - 1}} {
				store, _ := prins.NewMemStore(bad.bs, bad.nb)
				if err := primary.AttachReplica(prins.NewReplica(store)); err == nil {
					t.Errorf("replica of %dx%d attached to a primary that ships %dx%d", bad.nb, bad.bs, nb, tc.wantBS)
				}
			}
			store, _ := prins.NewMemStore(tc.wantBS, nb)
			if err := primary.AttachReplica(prins.NewReplica(store)); err != nil {
				t.Fatalf("well-sized replica refused: %v", err)
			}
		})
	}
}
