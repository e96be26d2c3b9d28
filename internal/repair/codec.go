package repair

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Chain-hop wire format. A repair chain rebuilds a lost stripe unit by
// threading one partial-sum payload through the k survivors: each hop
// folds coeff·(its own unit bytes) into the partial with GF(256)
// arithmetic and forwards it, and the last hop lands the finished unit
// run on the replacement replica with one bulk write. The request is
// the opaque data segment of an OpRepairChain PDU:
//
//	off 0:  magic "PRC1"
//	off 4:  unitSize (uint32)   stripe unit bytes (= every store's block size)
//	off 8:  lba      (uint64)   first unit LBA of this run
//	off 16: count    (uint32)   units in this run
//	off 20: coeff    (uint8)    THIS hop's repair coefficient
//	off 21: nhops    (uint8)    hops remaining after this one
//	then, per remaining hop: coeff (uint8), addr, export
//	then the sink (replacement replica): addr, export
//	then the partial payload: empty at the chain head (the first hop
//	starts the sum from zero), exactly count*unitSize bytes afterwards
//
// where addr and export are length-prefixed strings (uint16 length,
// then the bytes). The response payload is:
//
//	off 0:  magic "PRR1"
//	off 4:  wire   (uint64)  measured bytes sent downstream of this hop
//	off 12: blocks (uint32)  unit blocks written to the replacement
//
// Decoding is strict and bounded: unknown magic, oversized strings,
// truncation, or a partial whose length matches neither legal shape
// are refused before any arithmetic happens.
const (
	reqMagic  = "PRC1"
	respMagic = "PRR1"

	reqFixedLen  = 22
	respLen      = 16
	maxStringLen = 4096
	// maxChainUnits bounds count: one run's partial payload stays well
	// under the PDU data-segment cap for any plausible unit size.
	maxChainUnits = 4096
)

// ErrBadRequest reports a malformed or out-of-bounds chain request.
var ErrBadRequest = errors.New("repair: bad chain request")

// hop is one remaining chain stop.
type hop struct {
	coeff  uint8
	addr   string
	export string
}

// chainReq is one decoded chain-hop request.
type chainReq struct {
	unitSize uint32
	lba      uint64
	count    uint32
	coeff    uint8
	hops     []hop
	sinkAddr string
	sinkName string
	partial  []byte // nil at the chain head, count*unitSize bytes after
}

func appendString(buf []byte, s string) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(s)))
	return append(buf, s...)
}

func takeString(data []byte) (string, []byte, error) {
	if len(data) < 2 {
		return "", nil, fmt.Errorf("%w: truncated string length", ErrBadRequest)
	}
	n := int(binary.BigEndian.Uint16(data))
	data = data[2:]
	if n > maxStringLen {
		return "", nil, fmt.Errorf("%w: string of %d bytes", ErrBadRequest, n)
	}
	if len(data) < n {
		return "", nil, fmt.Errorf("%w: truncated string", ErrBadRequest)
	}
	return string(data[:n]), data[n:], nil
}

// encode assembles the request payload.
func (r *chainReq) encode() ([]byte, error) {
	if len(r.hops) > 255 {
		return nil, fmt.Errorf("%w: %d hops", ErrBadRequest, len(r.hops))
	}
	size := reqFixedLen + len(r.partial)
	buf := make([]byte, 0, size+64)
	buf = append(buf, reqMagic...)
	buf = binary.BigEndian.AppendUint32(buf, r.unitSize)
	buf = binary.BigEndian.AppendUint64(buf, r.lba)
	buf = binary.BigEndian.AppendUint32(buf, r.count)
	buf = append(buf, r.coeff, uint8(len(r.hops)))
	for _, h := range r.hops {
		buf = append(buf, h.coeff)
		buf = appendString(buf, h.addr)
		buf = appendString(buf, h.export)
	}
	buf = appendString(buf, r.sinkAddr)
	buf = appendString(buf, r.sinkName)
	return append(buf, r.partial...), nil
}

// decodeChainReq parses and bounds-checks one request payload. The
// partial aliases data.
func decodeChainReq(data []byte) (*chainReq, error) {
	if len(data) < reqFixedLen {
		return nil, fmt.Errorf("%w: %d bytes", ErrBadRequest, len(data))
	}
	if string(data[:4]) != reqMagic {
		return nil, fmt.Errorf("%w: magic %q", ErrBadRequest, data[:4])
	}
	r := &chainReq{
		unitSize: binary.BigEndian.Uint32(data[4:]),
		lba:      binary.BigEndian.Uint64(data[8:]),
		count:    binary.BigEndian.Uint32(data[16:]),
		coeff:    data[20],
	}
	nhops := int(data[21])
	if r.unitSize == 0 || r.count == 0 || r.count > maxChainUnits {
		return nil, fmt.Errorf("%w: %d units of %d bytes", ErrBadRequest, r.count, r.unitSize)
	}
	rest := data[reqFixedLen:]
	var err error
	for i := 0; i < nhops; i++ {
		if len(rest) < 1 {
			return nil, fmt.Errorf("%w: truncated hop", ErrBadRequest)
		}
		h := hop{coeff: rest[0]}
		rest = rest[1:]
		if h.addr, rest, err = takeString(rest); err != nil {
			return nil, err
		}
		if h.export, rest, err = takeString(rest); err != nil {
			return nil, err
		}
		r.hops = append(r.hops, h)
	}
	if r.sinkAddr, rest, err = takeString(rest); err != nil {
		return nil, err
	}
	if r.sinkName, rest, err = takeString(rest); err != nil {
		return nil, err
	}
	switch len(rest) {
	case 0:
	case int(r.count) * int(r.unitSize):
		r.partial = rest
	default:
		return nil, fmt.Errorf("%w: partial of %d bytes for %d units of %d",
			ErrBadRequest, len(rest), r.count, r.unitSize)
	}
	return r, nil
}

// chainResp is one decoded hop response.
type chainResp struct {
	wire   uint64
	blocks uint32
}

func (r chainResp) encode() []byte {
	buf := make([]byte, 0, respLen)
	buf = append(buf, respMagic...)
	buf = binary.BigEndian.AppendUint64(buf, r.wire)
	return binary.BigEndian.AppendUint32(buf, r.blocks)
}

func decodeChainResp(data []byte) (chainResp, error) {
	if len(data) != respLen || string(data[:4]) != respMagic {
		return chainResp{}, fmt.Errorf("%w: chain response of %d bytes", ErrBadRequest, len(data))
	}
	return chainResp{
		wire:   binary.BigEndian.Uint64(data[4:]),
		blocks: binary.BigEndian.Uint32(data[12:]),
	}, nil
}
