package iscsi

import (
	"bytes"
	"net"
	"sync"
	"testing"
)

// recordConn wraps a conn and records every byte written to it, so a
// test can compare full wire transcripts.
type recordConn struct {
	net.Conn
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *recordConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.buf.Write(p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *recordConn) bytes() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]byte(nil), c.buf.Bytes()...)
}

// TestFramedWireEquality is the zero-copy send path's golden-bytes
// proof: a ReplicaWriteFramed push (header stamped in place into the
// caller's buffer, one Write) must put exactly the same bytes on the
// wire as ReplicaWriteStream with the same tuple — v3 framing for the
// zero tag, v5 for a tagged stream. Fresh initiators on both sides
// keep the ITT sequences aligned, so the whole session transcripts
// (login included) must match byte for byte.
func TestFramedWireEquality(t *testing.T) {
	transcript := func(t *testing.T, send func(init *Initiator) error) []byte {
		t.Helper()
		target := NewTarget()
		target.Export("r", &replicaSink{})
		client, server := net.Pipe()
		rec := &recordConn{Conn: client}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			target.ServeConn(server)
		}()
		init := NewInitiator(rec)
		defer func() {
			init.Close()
			wg.Wait()
		}()
		if err := init.Login("r"); err != nil {
			t.Fatal(err)
		}
		if err := send(init); err != nil {
			t.Fatal(err)
		}
		return rec.bytes()
	}

	frame := []byte{0x10, 0x20, 0x00, 0x30, 0x40}
	cases := []struct {
		name  string
		shard uint8
		vol   uint16
	}{
		{"untagged-v3", 0, 0},
		{"tagged-v5", 3, 7},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			streamed := transcript(t, func(init *Initiator) error {
				return init.ReplicaWriteStream(1, tc.shard, tc.vol, 9, 4, 0xabcdef, frame)
			})
			pdu := make([]byte, FrameHeadroom+len(frame))
			copy(pdu[FrameHeadroom:], frame)
			framed := transcript(t, func(init *Initiator) error {
				return init.ReplicaWriteFramed(1, tc.shard, tc.vol, 9, 4, 0xabcdef, pdu)
			})
			if !bytes.Equal(streamed, framed) {
				t.Errorf("framed transcript differs from streamed:\nstreamed %x\nframed   %x", streamed, framed)
			}
		})
	}
}

// TestFramedBatchOfOneWireEquality pins the batch-of-1 wire contract
// after the zero-copy rework: a single-entry ReplicaWriteBatchStream
// still degrades to the plain OpReplicaWrite PDU, byte-identical to an
// unbatched push.
func TestFramedBatchOfOneWireEquality(t *testing.T) {
	transcript := func(t *testing.T, send func(init *Initiator) error) []byte {
		t.Helper()
		target := NewTarget()
		target.Export("r", &replicaSink{})
		client, server := net.Pipe()
		rec := &recordConn{Conn: client}
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			target.ServeConn(server)
		}()
		init := NewInitiator(rec)
		defer func() {
			init.Close()
			wg.Wait()
		}()
		if err := init.Login("r"); err != nil {
			t.Fatal(err)
		}
		if err := send(init); err != nil {
			t.Fatal(err)
		}
		return rec.bytes()
	}

	frame := []byte{7, 0, 0, 9}
	single := transcript(t, func(init *Initiator) error {
		return init.ReplicaWriteStream(1, 0, 0, 5, 2, 0x1234, frame)
	})
	batched := transcript(t, func(init *Initiator) error {
		_, err := init.ReplicaWriteBatchStream(1, 0, 0, []BatchEntry{{Seq: 5, LBA: 2, Hash: 0x1234, Frame: frame}})
		return err
	})
	if !bytes.Equal(single, batched) {
		t.Errorf("batch-of-1 transcript differs from single push:\nsingle  %x\nbatched %x", single, batched)
	}
}

// TestFramedRejectsShortBuffer pins StampReplicaHeader's bounds check:
// a buffer without the header headroom must be refused before any
// write happens.
func TestFramedRejectsShortBuffer(t *testing.T) {
	if err := StampReplicaHeader(make([]byte, FrameHeadroom-1), 1, 0, 0, 1, 1, 0, 0); err == nil {
		t.Fatal("StampReplicaHeader accepted a buffer without headroom")
	}
}
