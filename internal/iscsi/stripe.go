package iscsi

import "fmt"

// Stripe wire format (proto v6). The data segment of an
// OpReplicaWriteStripe PDU is a replica-group prefix followed by the
// same count-prefixed entry sequence an OpReplicaWriteBatch carries,
// except each entry's frame encodes one stripe UNIT (an RS-coded
// slice of the block, or of its PRINS delta) rather than a whole
// block:
//
//	off 0: k        (uint8)  data units / reconstruction quorum
//	off 1: n        (uint8)  total units in the group
//	off 2: idx      (uint8)  which unit this replica stores
//	off 3: reserved (uint8)  must be zero
//	off 4: count    (uint32)
//	then, per entry (as in a batch):
//	  off +0 : seq      (uint64)
//	  off +8 : lba      (uint64)
//	  off +16: hash     (uint64)  content hash of the decoded new UNIT
//	  off +24: frameLen (uint32)
//	  off +28: frame    (frameLen bytes, an xcode frame)
//
// The response is an OpResp whose data segment holds one status byte
// per entry, in entry order, exactly like a batch response.
const (
	// stripePrefixLen is the fixed {k, n, idx, reserved} group prefix.
	stripePrefixLen = 4
)

// StripeHeader identifies the replica-group geometry of a stripe push.
type StripeHeader struct {
	K, N, Idx uint8
}

// valid reports structural sanity: 1 <= k <= n and idx < n.
func (h StripeHeader) valid() bool {
	return h.K >= 1 && h.K <= h.N && h.Idx < h.N
}

// StripeBackend is the k-of-n replica-group extension of Backend: a
// replica that stores one stripe unit per block. A stripe push routed
// at a backend without it is refused with StatusBadRequest.
// Implementations return exactly one status per entry, in entry order.
type StripeBackend interface {
	Backend
	HandleReplicaStripe(mode, shard uint8, vol uint16, hdr StripeHeader, entries []BatchEntry) []Status
}

// StripeWireLen returns the data-segment bytes a stripe of entries
// occupies on the wire (PDU header excluded); used for modelled wire
// accounting.
func StripeWireLen(entries []BatchEntry) int {
	return stripePrefixLen + BatchWireLen(entries)
}

// prefix returns the {k, n, idx, reserved} group prefix of a stripe
// segment, or ErrBadFrame for a structurally invalid geometry.
func (h StripeHeader) prefix() ([]byte, error) {
	if !h.valid() {
		return nil, fmt.Errorf("%w: stripe group k=%d n=%d idx=%d", ErrBadFrame, h.K, h.N, h.Idx)
	}
	return []byte{h.K, h.N, h.Idx, 0}, nil
}

// EncodeStripe assembles the contiguous data segment for a stripe
// push.
func EncodeStripe(hdr StripeHeader, entries []BatchEntry) ([]byte, error) {
	prefix, err := hdr.prefix()
	if err != nil {
		return nil, err
	}
	return encodeEntryList(prefix, entries, false)
}

// DecodeStripe parses the data segment of an OpReplicaWriteStripe PDU.
// Frames alias data; the caller owns data until the entries are
// consumed. Decoding is strict and bounded exactly like DecodeBatch:
// the group prefix must be structurally valid (1 <= k <= n, idx < n,
// reserved zero), every entry fully present, no trailing bytes.
// Truncation reports ErrShortFrame and structural violations report
// ErrBadFrame — hostile input never panics or over-allocates.
func DecodeStripe(data []byte) (StripeHeader, []BatchEntry, error) {
	hdr, list, err := splitStripe(data)
	if err != nil {
		return hdr, nil, err
	}
	entries, err := DecodeBatch(list)
	return hdr, entries, err
}

// splitStripe validates a stripe segment's group prefix and returns it
// with the entry list that follows.
func splitStripe(data []byte) (StripeHeader, []byte, error) {
	var hdr StripeHeader
	if len(data) < stripePrefixLen {
		return hdr, nil, fmt.Errorf("%w: stripe segment of %d bytes", ErrShortFrame, len(data))
	}
	hdr = StripeHeader{K: data[0], N: data[1], Idx: data[2]}
	if data[3] != 0 {
		return hdr, nil, fmt.Errorf("%w: stripe reserved byte 0x%02x", ErrBadFrame, data[3])
	}
	if _, err := hdr.prefix(); err != nil {
		return hdr, nil, err
	}
	return hdr, data[stripePrefixLen:], nil
}

// ReplicaWriteStripe pushes stripe units for a k-of-n replica group in
// one round trip and returns one status per entry, in entry order (see
// pushEntryList).
func (i *Initiator) ReplicaWriteStripe(mode, shard uint8, vol uint16, shdr StripeHeader, entries []BatchEntry) ([]Status, error) {
	prefix, err := shdr.prefix()
	if err != nil {
		return nil, err
	}
	return i.pushEntryList(PDU{Op: OpReplicaWriteStripe, Mode: mode, Shard: shard, Vol: vol}, prefix, entries)
}
