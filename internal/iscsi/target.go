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
// entries, entries[i].Frame) is the session's own request storage,
// which the next PDU of the session overwrites. A
// Backend must not retain any of it, or a slice of it, after the method
// returns; what it needs later it copies.
type Backend interface {
	// Geometry returns the device shape advertised at login.
	Geometry() (blockSize int, numBlocks uint64)
	// HandleRead returns the contents of blocks [lba, lba+blocks).
	HandleRead(lba uint64, blocks uint32) ([]byte, Status)
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
func (b *StoreBackend) HandleRead(lba uint64, blocks uint32) ([]byte, Status) {
	bs := b.Store.BlockSize()
	out := make([]byte, int(blocks)*bs)
	for i := uint32(0); i < blocks; i++ {
		if err := b.Store.ReadBlock(lba+uint64(i), out[int(i)*bs:int(i+1)*bs]); err != nil {
			return nil, storeStatus(err)
		}
	}
	return out, StatusOK
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
// decodes every entry list into the same entries, inflates every
// compressed repair span into the same span buffer and every squeezed
// list into its stream's buffer, so a steady stream of pushes
// allocates nothing on the way in. All of it starts empty and grows to
// the largest request the session has carried; none of it outlives the
// handling of the PDU it holds (see Backend). squeeze also keeps the
// squeeze history of up to maxSqueezeStreams streams, which lives as
// long as the session.
type request struct {
	hdr      [headerLen]byte
	pdu      PDU
	seg      []byte
	entries  []BatchEntry
	span     []byte
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
			bs, nb := backend.Geometry()
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
			if pdu.Blocks == 0 {
				resp.Status = StatusBadRequest
				break
			}
			data, st := backend.HandleRead(pdu.LBA, pdu.Blocks)
			resp.Status = st
			if st == StatusOK {
				resp.Data = data
			}

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
			if pdu.Blocks == 0 || pdu.Blocks > maxHashBatch {
				resp.Status = StatusBadRequest
				break
			}
			// One block at a time: materializing the whole range first
			// costs a blocks x blockSize buffer per request (MiBs), which
			// a resync pass turns into a device-sized burst of large
			// garbage on top of whatever the heap holds.
			hashes := make([]byte, 0, int(pdu.Blocks)*HashSize)
			for k := uint32(0); k < pdu.Blocks && resp.Status == StatusOK; k++ {
				data, st := backend.HandleRead(pdu.LBA+uint64(k), 1)
				resp.Status = st
				if st == StatusOK {
					hashes = binary.BigEndian.AppendUint64(hashes, HashBlock(data))
				}
			}
			// A request carrying the primary's digest of this answer is
			// settled by the digest alone when they agree: the empty
			// segment says "the same", and a clean batch costs its two
			// headers. A zero digest asks for the hashes unconditionally.
			if resp.Status == StatusOK && (pdu.Hash == 0 || HashBlock(hashes) != pdu.Hash) {
				resp.Data = hashes
			}

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
