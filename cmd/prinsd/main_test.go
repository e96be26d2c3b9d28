package main

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"

	"prins"
	"prins/internal/metrics"
	"prins/internal/parity"
)

func TestParseMode(t *testing.T) {
	tests := []struct {
		in      string
		want    prins.Mode
		wantErr bool
	}{
		{in: "prins", want: prins.ModePRINS},
		{in: "traditional", want: prins.ModeTraditional},
		{in: "compressed", want: prins.ModeCompressed},
		{in: "bogus", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseMode(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("parseMode(%q) err = %v, wantErr %v", tt.in, err, tt.wantErr)
		}
		if err == nil && got != tt.want {
			t.Errorf("parseMode(%q) = %v, want %v", tt.in, got, tt.want)
		}
	}
}

func TestSplitEndpoint(t *testing.T) {
	tests := []struct {
		in         string
		addr, name string
		wantErr    bool
	}{
		{in: "host:3260/vol0", addr: "host:3260", name: "vol0"},
		{in: "1.2.3.4:99/a/b", addr: "1.2.3.4:99/a", name: "b"},
		{in: "nohost", wantErr: true},
		{in: "host:3260/", wantErr: true},
		{in: "/vol", wantErr: true},
	}
	for _, tt := range tests {
		addr, name, err := splitEndpoint(tt.in)
		if (err != nil) != tt.wantErr {
			t.Errorf("splitEndpoint(%q) err = %v", tt.in, err)
			continue
		}
		if err == nil && (addr != tt.addr || name != tt.name) {
			t.Errorf("splitEndpoint(%q) = %q,%q", tt.in, addr, name)
		}
	}
}

func TestOpenStore(t *testing.T) {
	// In-memory.
	s, err := openStore("", 512, 16)
	if err != nil {
		t.Fatal(err)
	}
	if s.BlockSize() != 512 || s.NumBlocks() != 16 {
		t.Error("mem store geometry wrong")
	}
	s.Close()

	// File-backed: create then reopen.
	path := filepath.Join(t.TempDir(), "vol.img")
	s, err = openStore(path, 512, 16)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	buf[0] = 7
	if err := s.WriteBlock(3, buf); err != nil {
		t.Fatal(err)
	}
	s.Close()

	s2, err := openStore(path, 512, 0 /* size ignored on reopen */)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := make([]byte, 512)
	if err := s2.ReadBlock(3, got); err != nil {
		t.Fatal(err)
	}
	if got[0] != 7 {
		t.Error("file store did not persist")
	}
}

// TestFormatBytes pins the byte figures prinsd prints in its status
// and repair lines.
func TestFormatBytes(t *testing.T) {
	tests := []struct {
		n    int64
		want string
	}{
		{100, "100B"},
		{4096, "4.0KB"},
		{5 << 20, "5.00MB"},
		{3 << 30, "3.00GB"},
	}
	for _, tt := range tests {
		if got := metrics.FormatBytes(tt.n); got != tt.want {
			t.Errorf("metrics.FormatBytes(%d) = %q, want %q", tt.n, got, tt.want)
		}
	}
}

// TestRunRepairFrom drives the one-shot rebuild: a 2-of-4 group
// primary serves its logical device, a blank replica for unit 1
// serves its unit device, and -repair-from resyncs the unit from the
// primary's export. The replica must end up holding exactly unit 1 of
// the RS encoding of every block.
func TestRunRepairFrom(t *testing.T) {
	const (
		k, n = 2, 4
		bs   = 4096
		nb   = 64
		lost = 1
	)
	local, err := prins.NewMemStore(bs, nb)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	blk := make([]byte, bs)
	for lba := uint64(0); lba < nb; lba++ {
		rng.Read(blk)
		if err := local.WriteBlock(lba, blk); err != nil {
			t.Fatal(err)
		}
	}
	primary, err := prins.NewPrimary(local, prins.Config{Mode: prins.ModePRINS, GroupK: k, GroupN: n})
	if err != nil {
		t.Fatal(err)
	}
	defer primary.Close()
	paddr, err := primary.Serve("127.0.0.1:0", "vol")
	if err != nil {
		t.Fatal(err)
	}
	unit, err := prins.NewMemStore(primary.GroupUnitSize(), nb)
	if err != nil {
		t.Fatal(err)
	}
	replica := prins.NewReplica(unit)
	defer replica.Close()
	raddr, err := replica.Serve("127.0.0.1:0", "u")
	if err != nil {
		t.Fatal(err)
	}

	if err := run([]string{"-group", "2,4", "-repair-lost", "1",
		"-repair-from", paddr.String() + "/vol", "-repair-sink", raddr.String() + "/u"}); err != nil {
		t.Fatal(err)
	}
	rs, err := parity.NewRS(k, n)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, primary.GroupUnitSize())
	for lba := uint64(0); lba < nb; lba++ {
		if err := local.ReadBlock(lba, blk); err != nil {
			t.Fatal(err)
		}
		units, err := rs.Encode(blk)
		if err != nil {
			t.Fatal(err)
		}
		if err := unit.ReadBlock(lba, got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, units[lost]) {
			t.Fatalf("lba %d: unit %d not rebuilt", lba, lost)
		}
	}

	if err := run([]string{"-repair-lost", "1", "-repair-from", paddr.String() + "/vol",
		"-repair-sink", raddr.String() + "/u"}); err == nil {
		t.Error("-repair-from without -group accepted")
	}
	if err := run([]string{"-group", "2,4", "-repair-lost", "1", "-repair-from", paddr.String() + "/vol",
		"-repair-sink", "nosink"}); err == nil {
		t.Error("bad -repair-sink accepted")
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	if err := run([]string{"-role", "nonsense"}); err == nil {
		t.Error("bad role accepted")
	}
	if err := run([]string{"-mode", "nonsense"}); err == nil {
		t.Error("bad mode accepted")
	}
	if err := run([]string{"-replica", "garbage"}); err == nil {
		t.Error("bad replica endpoint accepted")
	}
}
