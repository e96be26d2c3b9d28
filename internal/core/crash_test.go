package core

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"testing"
	"time"

	"prins/internal/block"
)

// panicMessage is what panicClient's push panics with.
const panicMessage = "replica client push panicked on purpose"

// panicClient is a replica client whose every push panics.
type panicClient struct{}

func (panicClient) ReplicaWriteStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) error {
	panic(panicMessage)
}

// TestPanicInPushCrashes: a panic in a push crashes the program with the
// panic's message. An async pipe runs its one push on the shipper
// itself, under the shipper's deferred drain of its ship window, which
// must not wait for the push that panicked. The test runs its own
// binary again as a child whose replica client panics, and gives it 10
// s to die.
func TestPanicInPushCrashes(t *testing.T) {
	if os.Getenv("PRINS_PANIC_CHILD") == "1" {
		primary, err := block.NewMem(512, 8)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(primary, Config{Mode: ModePRINS, Async: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AttachReplica(panicClient{}); err != nil {
			t.Fatal(err)
		}
		if err := e.WriteBlock(3, bytes.Repeat([]byte{7}, 512)); err != nil {
			t.Fatal(err)
		}
		_ = e.Drain() // the shipper's panic ends the process while this waits
		t.Fatal("the drain returned: the panicking push settled")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-test.run=^TestPanicInPushCrashes$")
	cmd.Env = append(os.Environ(), "PRINS_PANIC_CHILD=1")
	out, err := cmd.CombinedOutput()
	if ctx.Err() != nil {
		t.Fatalf("the child still ran after 10 s: a panicking push hangs the shipper\n%s", out)
	}
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() == 0 {
		t.Fatalf("the child exited with %v, want a crash\n%s", err, out)
	}
	if !bytes.Contains(out, []byte("panic: "+panicMessage)) {
		t.Fatalf("the child's output does not carry the panic's message\n%s", out)
	}
}
