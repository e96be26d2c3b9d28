package iscsi

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"prins/internal/block"
)

// Backend is what a target exports: a block device plus, optionally,
// a replication sink. The PRINS engine implements Backend on the
// primary (intercepting writes) and on replicas (applying pushes); a
// plain StoreBackend serves an unreplicated device.
//
// Buffer lifetime: every []byte and []BatchEntry a target hands a
// Backend method (this interface's and its extensions': data, frame,
// entries, entries[i].Frame, and HandleRead's dst) is the session's own
// storage, which the next PDU of the session overwrites. A
// Backend must not retain any of it, or a slice of it, after the method
// returns; what it needs later it copies.
type Backend interface {
	// Geometry returns the device shape advertised at login.
	Geometry() (blockSize int, numBlocks uint64)
	// HandleRead reads the blocks [lba, lba+len(dst)/blockSize) into
	// dst, whose length is a whole number of blocks. On any status but
	// StatusOK dst holds nothing the target sends.
	HandleRead(lba uint64, dst []byte) Status
	// HandleWrite applies a whole-block write at lba.
	HandleWrite(lba uint64, data []byte) Status
	// HandleReplicaStream applies a replication push: an xcode frame
	// for the block at lba, produced by a peer engine in the given mode
	// with the given sequence number in the (vol, shard) stream's
	// sequence space. An untagged push is stream (0, 0). hash, when
	// non-zero, is the content hash the decoded new block must verify
	// against before the in-place write (StatusDiverged on mismatch).
	HandleReplicaStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) Status
}

// StoreBackend adapts a block.Store into a Backend with no replication
// support.
type StoreBackend struct {
	Store block.Store
}

var _ Backend = (*StoreBackend)(nil)

// Geometry implements Backend.
func (b *StoreBackend) Geometry() (int, uint64) {
	return b.Store.BlockSize(), b.Store.NumBlocks()
}

// HandleRead implements Backend.
func (b *StoreBackend) HandleRead(lba uint64, dst []byte) Status {
	bs := b.Store.BlockSize()
	if len(dst) == 0 || len(dst)%bs != 0 {
		return StatusBadRequest
	}
	for i := 0; i*bs < len(dst); i++ {
		if err := b.Store.ReadBlock(lba+uint64(i), dst[i*bs:(i+1)*bs]); err != nil {
			return storeStatus(err)
		}
	}
	return StatusOK
}

// HandleWrite implements Backend.
func (b *StoreBackend) HandleWrite(lba uint64, data []byte) Status {
	bs := b.Store.BlockSize()
	if len(data) == 0 || len(data)%bs != 0 {
		return StatusBadRequest
	}
	for i := 0; i*bs < len(data); i++ {
		if err := b.Store.WriteBlock(lba+uint64(i), data[i*bs:(i+1)*bs]); err != nil {
			return storeStatus(err)
		}
	}
	return StatusOK
}

// HandleReplicaStream implements Backend; a plain store is not a
// replica.
func (b *StoreBackend) HandleReplicaStream(uint8, uint8, uint16, uint64, uint64, uint64, []byte) Status {
	return StatusBadRequest
}

func storeStatus(err error) Status {
	if errors.Is(err, block.ErrOutOfRange) {
		return StatusOutOfRange
	}
	if errors.Is(err, block.ErrBadBufSize) {
		return StatusBadRequest
	}
	return StatusError
}

// Target is an iSCSI-style server exporting named backends. Zero or
// more listeners may feed it; each accepted connection runs a session
// loop until logout or error.
type Target struct {
	mu       sync.Mutex
	backends map[string]Backend
	closed   bool
	ln       []net.Listener
	conns    map[net.Conn]struct{}
	wg       sync.WaitGroup

	// Logf, when set, receives session-level error logs. Defaults to
	// silent; cmd/prinsd wires it to the process logger.
	Logf func(format string, args ...any)
}

// NewTarget returns an empty target.
func NewTarget() *Target {
	return &Target{
		backends: make(map[string]Backend),
		conns:    make(map[net.Conn]struct{}),
	}
}

// Export registers backend under name. Re-exporting a name replaces
// the previous backend for new sessions.
func (t *Target) Export(name string, backend Backend) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.backends[name] = backend
}

// lookup fetches an exported backend.
func (t *Target) lookup(name string) (Backend, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, ok := t.backends[name]
	return b, ok
}

// Serve accepts connections from ln until the listener is closed or
// the target shut down. It always returns a non-nil error (like
// http.Server.Serve); after Close it returns net.ErrClosed.
func (t *Target) Serve(ln net.Listener) error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return net.ErrClosed
	}
	t.ln = append(t.ln, ln)
	t.mu.Unlock()

	for {
		conn, err := ln.Accept()
		if err != nil {
			return err
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.ServeConn(conn)
		}()
	}
}

// Listen starts serving on a fresh TCP listener bound to addr and
// returns the bound address. Serving proceeds on a background
// goroutine owned by the target.
func (t *Target) Listen(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("iscsi: listen %s: %w", addr, err)
	}
	t.wg.Add(1)
	go func() {
		defer t.wg.Done()
		if err := t.Serve(ln); err != nil && !errors.Is(err, net.ErrClosed) {
			t.logf("iscsi target: serve: %v", err)
		}
	}()
	return ln.Addr(), nil
}

// Close stops all listeners, severs every active session, and waits
// for session goroutines to exit.
func (t *Target) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	lns := t.ln
	t.ln = nil
	conns := make([]net.Conn, 0, len(t.conns))
	for c := range t.conns {
		conns = append(conns, c)
	}
	t.mu.Unlock()

	for _, ln := range lns {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	t.wg.Wait()
	return nil
}

// track registers a live session connection; it reports false when the
// target is already closed (the caller must drop the conn).
func (t *Target) track(conn net.Conn) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return false
	}
	t.conns[conn] = struct{}{}
	return true
}

// untrack removes a finished session connection.
func (t *Target) untrack(conn net.Conn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	delete(t.conns, conn)
}

func (t *Target) logf(format string, args ...any) {
	if t.Logf != nil {
		t.Logf(format, args...)
	}
}

// request is a session's request storage: ServeConn reads every PDU of
// the session into the same header, PDU and data-segment buffer,
// decodes every entry list into the same entries and every hash
// command's unit list into the same units, inflates every compressed
// repair span (and expands every one with copies) into the same span
// buffer and every squeezed list into its stream's buffer, so a steady
// stream of pushes allocates nothing on the way in. Reads and hash commands answer from
// the session's blocks and hashes buffers, so they allocate nothing
// either. All of it starts empty and grows to the largest request the
// session has carried; none of it outlives the handling of the PDU it
// holds (see Backend). blocks is its own buffer, never a slice of seg,
// span or a squeeze buffer, so no command reads into bytes another
// one's handling still holds. squeeze also keeps the squeeze history of
// up to maxSqueezeStreams streams, which lives as long as the session.
type request struct {
	hdr      [headerLen]byte
	pdu      PDU
	seg      []byte
	entries  []BatchEntry
	span     spanScratch
	blocks   []byte     // what a read or hash command reads: HandleRead's dst
	hashes   []byte     // a hash command's answer
	units    []HashUnit // a hash command's units
	squeeze  map[uint32]*SqueezeReceiver
	squeezed uint64 // squeezed pushes the session took: squeeze's clock
}

// read reads the session's next PDU from r; rq.pdu holds it, its Data
// in rq.seg. Errors are readHeader's and readData's.
func (rq *request) read(r io.Reader) error {
	if err := rq.pdu.readHeader(r, rq.hdr[:]); err != nil {
		return err
	}
	n := int(binary.BigEndian.Uint32(rq.hdr[24:])) // readHeader bounded it by MaxDataSegment
	if cap(rq.seg) < n {
		rq.seg = make([]byte, n+n/4) // a little over, so slightly larger batches do not each reallocate
	}
	return rq.pdu.readData(r, rq.hdr[:], rq.seg[:n])
}

// readBlocks reads n bytes of whole blocks at lba from backend into the
// session's blocks buffer and returns them: valid until the next PDU.
func (rq *request) readBlocks(backend Backend, lba uint64, n int) ([]byte, Status) {
	if cap(rq.blocks) < n {
		rq.blocks = make([]byte, n+n/4) // as seg grows
	}
	dst := rq.blocks[:n]
	if st := backend.HandleRead(lba, dst); st != StatusOK {
		return nil, st
	}
	return dst, StatusOK
}

// hashUnits answers the hash command rq holds (see hash.go): each
// unit's hashes, read one block at a time into the blocks buffer and
// appended to the session's hashes buffer behind the answer's bitmap,
// and dropped again when the unit's digest matches them. The answer is
// valid until the next PDU; it is empty when every unit matched.
func (rq *request) hashUnits(backend Backend, bs int) ([]byte, Status) {
	pdu := &rq.pdu
	units, err := decodeHashUnits(rq.units, pdu.LBA, pdu.Blocks, pdu.Hash, pdu.Data)
	if err != nil {
		return nil, StatusBadRequest
	}
	rq.units = units
	bitmap := 0
	if len(units) > 1 {
		bitmap = (len(units) + 7) / 8
	}
	answer := rq.hashes[:0]
	for range bitmap {
		answer = append(answer, 0)
	}
	differs := false
	for k, u := range units {
		start := len(answer)
		for b := uint64(0); b < uint64(u.Count); b++ {
			data, st := rq.readBlocks(backend, u.LBA+b, bs)
			if st != StatusOK {
				return nil, st
			}
			answer = binary.BigEndian.AppendUint64(answer, HashBlock(data))
		}
		// A unit whose digest is the target's own digest of its hashes is
		// settled by it: its hashes leave the answer.
		if u.Digest != 0 && HashBlock(answer[start:]) == u.Digest {
			answer = answer[:start]
			continue
		}
		differs = true
		if bitmap > 0 {
			answer[k/8] |= 1 << (k % 8)
		}
	}
	rq.hashes = answer
	if !differs {
		return nil, StatusOK
	}
	return answer, StatusOK
}

// applyEntryList decodes the entry-list push rq holds, plain or
// squeezed (a nonzero Seq field is a squeezed list's history tag), and
// hands it to the backend. Both list opcodes carry the same entry list
// (batch.go), so both go to the same method. The header status it
// returns refuses the whole PDU, nothing applied: StatusBadRequest for
// a malformed segment or a backend that takes no lists;
// StatusStaleHistory for a squeezed list built on a history this end of
// its stream does not hold. A squeezed list goes to a SqueezeBackend,
// which verifies its digest; a backend without one cannot, and every
// entry is StatusUnverified.
func (rq *request) applyEntryList(backend Backend) ([]Status, Status) {
	pdu := &rq.pdu
	var entries []BatchEntry
	var digest uint64
	var err error
	squeezed := pdu.Seq != 0
	if squeezed {
		entries, digest, err = rq.unsqueeze()
	} else {
		entries, err = decodeEntryList(rq.entries, pdu.Data)
	}
	switch {
	case errors.Is(err, ErrStaleHistory):
		return nil, StatusStaleHistory
	case err != nil:
		return nil, StatusBadRequest
	}
	rq.entries = entries
	if squeezed {
		if sb, ok := backend.(SqueezeBackend); ok {
			return sb.HandleReplicaSqueezed(pdu.Mode, pdu.Shard, pdu.Vol, entries, digest), StatusOK
		}
		statuses := make([]Status, len(entries))
		for k := range statuses {
			statuses[k] = StatusUnverified
		}
		return statuses, StatusOK
	}
	if lb, ok := backend.(StreamBatchBackend); ok {
		return lb.HandleReplicaBatchStream(pdu.Mode, pdu.Shard, pdu.Vol, entries), StatusOK
	}
	return nil, StatusBadRequest
}

// packedAs reports whether the header of the PDU rq holds is stamped
// v9 exactly when listed says the PDU packs a list behind it: a hash
// command's units, a span's copies (see packedVersion). Either list
// under another version, or v9 with neither, is refused.
func (rq *request) packedAs(listed bool) bool { return listed == (rq.hdr[1] == packedVersion) }

// ServeConn runs one session on conn until logout, EOF, a protocol
// error, or target shutdown. It owns conn and closes it on return.
func (t *Target) ServeConn(conn net.Conn) { t.serve(conn, new(request)) }

// serve is ServeConn with the session's request storage rq.
func (t *Target) serve(conn net.Conn, rq *request) {
	defer conn.Close()
	if !t.track(conn) {
		return
	}
	defer t.untrack(conn)
	var backend Backend
	var bs int // the backend's block size, from the login
	pdu := &rq.pdu

	for {
		if err := rq.read(conn); err != nil {
			if !errors.Is(err, io.EOF) {
				t.logf("iscsi target: session %v: %v", conn.RemoteAddr(), err)
			}
			return
		}

		var resp PDU
		resp.ITT = pdu.ITT

		switch pdu.Op {
		case OpLoginReq:
			resp.Op = OpLoginResp
			name, err := decodeLoginReq(pdu.Data)
			if err != nil {
				resp.Status = StatusBadRequest
				break
			}
			b, ok := t.lookup(name)
			if !ok {
				resp.Status = StatusBadTarget
				break
			}
			backend = b
			var nb uint64
			bs, nb = backend.Geometry()
			resp.Status = StatusOK
			resp.Data = encodeLoginResp(bs, nb)

		case OpNop:
			resp.Op = OpNopResp
			resp.Status = StatusOK

		case OpLogout:
			resp.Op = OpLogoutResp
			resp.Status = StatusOK
			if _, err := resp.WriteTo(conn); err != nil {
				t.logf("iscsi target: logout resp: %v", err)
			}
			return

		case OpReadCmd:
			resp.Op = OpResp
			if backend == nil {
				resp.Status = StatusNotLoggedIn
				break
			}
			// Bounded before anything is sized: Blocks is the peer's, and
			// no answer may exceed what an initiator accepts.
			if pdu.Blocks == 0 || uint64(pdu.Blocks)*uint64(bs) > MaxDataSegment {
				resp.Status = StatusBadRequest
				break
			}
			resp.Data, resp.Status = rq.readBlocks(backend, pdu.LBA, int(pdu.Blocks)*bs)

		case OpWriteCmd:
			resp.Op = OpResp
			if backend == nil {
				resp.Status = StatusNotLoggedIn
				break
			}
			resp.Status = backend.HandleWrite(pdu.LBA, pdu.Data)

		case OpWriteSpan:
			resp.Op = OpResp
			if backend == nil {
				resp.Status = StatusNotLoggedIn
				break
			}
			if !rq.packedAs(pdu.Seq != 0) {
				resp.Status = StatusBadRequest
				break
			}
			resp.Status = rq.applySpan(backend)

		case OpReplicaWrite:
			resp.Op = OpResp
			if backend == nil {
				resp.Status = StatusNotLoggedIn
				break
			}
			resp.Status = backend.HandleReplicaStream(pdu.Mode, pdu.Shard, pdu.Vol, pdu.Seq, pdu.LBA, pdu.Hash, pdu.Data)

		case OpReplicaWriteBatch, OpReplicaWriteByRef:
			resp.Op = OpResp
			if backend == nil {
				resp.Status = StatusNotLoggedIn
				break
			}
			statuses, st := rq.applyEntryList(backend)
			resp.Status = st
			if st == StatusOK {
				resp.Data = EncodeBatchStatuses(statuses)
			}

		case OpHashCmd:
			resp.Op = OpResp
			if backend == nil {
				resp.Status = StatusNotLoggedIn
				break
			}
			if !rq.packedAs(len(pdu.Data) > 0) {
				resp.Status = StatusBadRequest
				break
			}
			// One block at a time into the session's read buffer, hashed
			// there, into its hashes buffer: a whole-device audit
			// allocates nothing on this side, and the block it hashes is
			// still in cache. Reading a unit whole would cost a blocks x
			// blockSize buffer per request.
			resp.Data, resp.Status = rq.hashUnits(backend, bs)

		default:
			resp.Op = OpResp
			resp.Status = StatusBadRequest
		}

		if _, err := resp.WriteTo(conn); err != nil {
			t.logf("iscsi target: write response: %v", err)
			return
		}
	}
}
