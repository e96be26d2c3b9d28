// Package uncheckederr exercises the unchecked-error rule: dropped
// errors from storage and wire I/O calls.
package uncheckederr

import (
	"bytes"
	"net"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/xcode"
)

func dropStoreErrors(s block.Store, buf []byte) {
	s.ReadBlock(0, buf)  // finding: dropped ReadBlock error
	s.WriteBlock(0, buf) // finding: dropped WriteBlock error
	s.Close()            // finding: dropped Close error

	_ = s.Close() // ok: explicit discard
	if err := s.ReadBlock(1, buf); err != nil {
		_ = err // ok: handled
	}
	defer s.Close() // ok: deferred cleanup is exempt
}

func dropWireErrors(c net.Conn, frame []byte) {
	c.Write(frame)      // finding: dropped Write error
	xcode.Decode(frame) // finding: dropped xcode.Decode error

	var b bytes.Buffer
	b.Write(frame) // ok: bytes.Buffer cannot fail
}

func dropAttachErrors(e *core.Engine, rc core.ReplicaClient) {
	e.AttachReplica(rc) // finding: dropped AttachReplica error

	if err := e.AttachReplica(rc); err != nil {
		_ = err // ok: handled
	}
}
