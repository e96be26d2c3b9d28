// Package repair rebuilds a lost stripe unit of a k-of-n replica
// group with a pipelined survivor chain, the PRINS answer to mirror
// resync's full-block recopy. The coordinator picks any k survivors,
// derives their GF(256) repair coefficients from the group's
// Reed-Solomon code, and threads ONE partial-sum payload through them:
// each survivor folds coeff·(its own unit bytes) into the partial and
// forwards it to the next hop, and the last hop lands the finished
// unit run on the replacement replica with a bulk write. Per rebuilt
// block the chain moves k unit-sized payloads ≈ one logical block of
// traffic, versus mirror resync's hash exchange plus full-block
// recopy, and no single link ever carries more than a unit-sized
// stream — the repair load spreads across the survivor ring the way
// the paper's backward-parity path spreads write cost.
//
// The same decode matrix powers degraded reads: Reconstructor serves
// logical blocks from any k survivor units while the group is short a
// replica, so a primary rebuilt from a cold start can read before
// repair finishes.
package repair

import (
	"errors"
	"fmt"

	"prins/internal/block"
	"prins/internal/core"
	"prins/internal/iscsi"
	"prins/internal/metrics"
	"prins/internal/parity"
	"prins/internal/wan"
)

// DefaultBatch is the chain-run length (units per request) when a
// Chain doesn't set one. 128 units keeps each hop's payload far below
// the PDU data-segment cap for any sane unit size while amortizing
// per-hop round trips.
const DefaultBatch = 128

// ErrChain reports a failed chain round.
var ErrChain = errors.New("repair: chain failed")

// Dialer opens an initiator session to addr and logs into export.
// Chains and Nodes use it for every downstream connection, so tests
// can splice in loopback transports.
type Dialer func(addr, export string) (*iscsi.Initiator, error)

// DialExport is the production Dialer: TCP dial plus login.
func DialExport(addr, export string) (*iscsi.Initiator, error) {
	init, err := iscsi.Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := init.Login(export); err != nil {
		_ = init.Close()
		return nil, err
	}
	return init, nil
}

// Node is one survivor's half of the repair chain: it owns the
// replica's unit store and knows how to reach the next hop. Embed it
// (or a type that has it) alongside a core.ReplicaEngine to make the
// replica an iscsi.ChainBackend — see ChainedReplica.
type Node struct {
	// Unit is this replica's stripe-unit store.
	Unit block.Store
	// Dial opens downstream sessions; nil means DialExport.
	Dial Dialer
}

func (n *Node) dial(addr, export string) (*iscsi.Initiator, error) {
	if n.Dial != nil {
		return n.Dial(addr, export)
	}
	return DialExport(addr, export)
}

// HandleRepairChain services one hop of a pipelined repair chain: it
// folds coeff·(this node's unit bytes) into the request's partial sums
// and either forwards the grown request to the next survivor or, at
// the chain's tail, writes the finished units to the replacement
// replica. The response reports blocks written plus measured bytes this
// hop and everything downstream of it sent, so the coordinator gets
// end-to-end wire accounting from one round trip.
func (n *Node) HandleRepairChain(req []byte) ([]byte, iscsi.Status) {
	r, err := decodeChainReq(req)
	if err != nil {
		return nil, iscsi.StatusBadRequest
	}
	if n.Unit == nil || int(r.unitSize) != n.Unit.BlockSize() {
		return nil, iscsi.StatusBadRequest
	}
	if r.lba+uint64(r.count) > n.Unit.NumBlocks() || r.lba+uint64(r.count) < r.lba {
		return nil, iscsi.StatusBadRequest
	}
	u := int(r.unitSize)
	partial := r.partial
	if partial == nil {
		partial = make([]byte, int(r.count)*u)
	}
	scratch := make([]byte, u)
	for i := 0; i < int(r.count); i++ {
		if err := n.Unit.ReadBlock(r.lba+uint64(i), scratch); err != nil {
			return nil, iscsi.StatusError
		}
		if err := parity.GFMulAdd(partial[i*u:(i+1)*u], scratch, r.coeff); err != nil {
			return nil, iscsi.StatusError
		}
	}

	if len(r.hops) == 0 {
		// Chain tail: land the rebuilt units on the replacement.
		sink, err := n.dial(r.sinkAddr, r.sinkName)
		if err != nil {
			return nil, iscsi.StatusError
		}
		defer sink.Close()
		if sink.BlockSize() != u {
			return nil, iscsi.StatusBadRequest
		}
		if err := sink.WriteBlocks(r.lba, partial); err != nil {
			return nil, iscsi.StatusError
		}
		return chainResp{wire: uint64(sink.WireSent()), blocks: r.count}.encode(), iscsi.StatusOK
	}

	next := r.hops[0]
	fwd := &chainReq{
		unitSize: r.unitSize,
		lba:      r.lba,
		count:    r.count,
		coeff:    next.coeff,
		hops:     r.hops[1:],
		sinkAddr: r.sinkAddr,
		sinkName: r.sinkName,
		partial:  partial,
	}
	payload, err := fwd.encode()
	if err != nil {
		return nil, iscsi.StatusError
	}
	down, err := n.dial(next.addr, next.export)
	if err != nil {
		return nil, iscsi.StatusError
	}
	defer down.Close()
	respData, err := down.RepairChain(payload)
	if err != nil {
		return nil, iscsi.StatusError
	}
	resp, err := decodeChainResp(respData)
	if err != nil {
		return nil, iscsi.StatusError
	}
	resp.wire += uint64(down.WireSent())
	return resp.encode(), iscsi.StatusOK
}

// ChainedReplica is a replica-group member that serves both the
// striped write path (via the embedded engine) and repair-chain hops
// (via the embedded Node). It satisfies iscsi.StripeBackend and
// iscsi.ChainBackend, so one target export carries writes, reads,
// hashes, and repair.
type ChainedReplica struct {
	*core.ReplicaEngine
	Node
}

var (
	_ iscsi.StripeBackend = (*ChainedReplica)(nil)
	_ iscsi.ChainBackend  = (*ChainedReplica)(nil)
)

// NewChainedReplica wraps a replica engine as a chain-capable group
// member, repairing out of the engine's own unit store. A nil dial
// uses DialExport.
func NewChainedReplica(r *core.ReplicaEngine, dial Dialer) *ChainedReplica {
	return &ChainedReplica{
		ReplicaEngine: r,
		Node:          Node{Unit: r.Store(), Dial: dial},
	}
}

// Hop names one survivor (or the sink) by target address, export name,
// and stripe-unit index within the group.
type Hop struct {
	Addr   string
	Export string
	// Unit is the survivor's unit index in [0, n). Ignored for the
	// sink, whose index is Chain.Lost by definition.
	Unit int
}

// Stats summarizes one Chain.Run.
type Stats struct {
	// Chains counts chain rounds (one per batched unit run).
	Chains int64
	// Blocks counts unit blocks rebuilt onto the sink.
	Blocks uint64
	// WireBytes is the measured bytes sent across every chain link,
	// coordinator included: request payloads, forwarded partials, and
	// the tail's bulk write, with PDU headers.
	WireBytes int64
	// IngestBytes is what the replacement replica actually absorbed —
	// the rebuilt unit bytes. The gap between WireBytes and
	// IngestBytes is the chain's transport overhead.
	IngestBytes int64
	// ModelWireBytes is the wan-model estimate of the same traffic
	// (payload plus per-packet headers), comparable with
	// resync.Stats.WireBytes for mirror-repair baselines.
	ModelWireBytes int64
}

// Chain coordinates a pipelined rebuild of one lost unit from k
// survivors. The zero value is not usable; fill every field below.
type Chain struct {
	// RS is the group's code (same k,n the engine stripes with).
	RS *parity.RS
	// Lost is the unit index being rebuilt.
	Lost int
	// Survivors lists exactly k reachable group members in chain
	// order: the coordinator contacts the first, which forwards to the
	// second, and so on.
	Survivors []Hop
	// Sink is the replacement replica receiving the rebuilt unit.
	Sink Hop
	// Dial opens the session to the first survivor; nil = DialExport.
	Dial Dialer
	// Batch is units per chain round; 0 means DefaultBatch. Runs are
	// additionally clamped so a round's payload fits the PDU cap.
	Batch uint32
	// M, when non-nil, receives per-round repair metrics.
	M *metrics.Repair
}

// Run rebuilds the given unit ranges (whole device when none given,
// using numBlocks as the unit count) through the survivor chain and
// returns the accounting. Ranges are normalized and clipped to
// numBlocks first, so resync dirty-range output can be passed
// straight in.
func (c *Chain) Run(numBlocks uint64, ranges ...block.Range) (Stats, error) {
	var st Stats
	if c.RS == nil {
		return st, fmt.Errorf("%w: no code", ErrChain)
	}
	if len(c.Survivors) != c.RS.K() {
		return st, fmt.Errorf("%w: %d survivors for k=%d", ErrChain, len(c.Survivors), c.RS.K())
	}
	idx := make([]int, len(c.Survivors))
	for i, h := range c.Survivors {
		idx[i] = h.Unit
	}
	coeffs, err := c.RS.RepairCoeffs(c.Lost, idx)
	if err != nil {
		return st, fmt.Errorf("%w: %v", ErrChain, err)
	}
	if len(ranges) == 0 {
		ranges = []block.Range{{Start: 0, Count: numBlocks}}
	}
	ranges = block.NormalizeRanges(ranges, numBlocks)

	dial := c.Dial
	if dial == nil {
		dial = DialExport
	}
	head, err := dial(c.Survivors[0].Addr, c.Survivors[0].Export)
	if err != nil {
		return st, fmt.Errorf("%w: dial head: %v", ErrChain, err)
	}
	defer head.Close()
	unitSize := head.BlockSize()
	if unitSize <= 0 {
		return st, fmt.Errorf("%w: head unit size %d", ErrChain, unitSize)
	}

	batch := c.Batch
	if batch == 0 {
		batch = DefaultBatch
	}
	if max := uint32(iscsi.MaxDataSegment/2) / uint32(unitSize); batch > max && max > 0 {
		batch = max
	}
	if batch > maxChainUnits {
		batch = maxChainUnits
	}

	hops := make([]hop, 0, len(c.Survivors)-1)
	for i := 1; i < len(c.Survivors); i++ {
		hops = append(hops, hop{
			coeff:  coeffs[i],
			addr:   c.Survivors[i].Addr,
			export: c.Survivors[i].Export,
		})
	}

	for _, rg := range ranges {
		for off := uint64(0); off < rg.Count; off += uint64(batch) {
			count := rg.Count - off
			if count > uint64(batch) {
				count = uint64(batch)
			}
			req := &chainReq{
				unitSize: uint32(unitSize),
				lba:      rg.Start + off,
				count:    uint32(count),
				coeff:    coeffs[0],
				hops:     hops,
				sinkAddr: c.Sink.Addr,
				sinkName: c.Sink.Export,
			}
			payload, err := req.encode()
			if err != nil {
				return st, fmt.Errorf("%w: %v", ErrChain, err)
			}
			before := head.WireSent()
			respData, err := head.RepairChain(payload)
			if err != nil {
				return st, fmt.Errorf("%w: lba %d: %v", ErrChain, req.lba, err)
			}
			resp, err := decodeChainResp(respData)
			if err != nil {
				return st, err
			}
			wire := head.WireSent() - before + int64(resp.wire)
			ingest := int64(resp.blocks) * int64(unitSize)
			st.Chains++
			st.Blocks += uint64(resp.blocks)
			st.WireBytes += wire
			st.IngestBytes += ingest
			st.ModelWireBytes += c.modelRound(len(payload), int(resp.blocks)*unitSize)
			if c.M != nil {
				c.M.AddChain(int64(resp.blocks), wire, ingest)
			}
		}
	}
	return st, nil
}

// modelRound estimates one round's wire bytes with the wan packet
// model, mirroring how resync models mirror-repair traffic: the
// coordinator's header-only request, k-1 survivor-to-survivor
// forwards each carrying the partial payload, and the tail's bulk
// write to the sink.
func (c *Chain) modelRound(headReqLen, partialLen int) int64 {
	total := int64(wan.WireBytesDiscrete(headReqLen))
	fwdLen := headReqLen + partialLen
	for i := 1; i < len(c.Survivors); i++ {
		total += int64(wan.WireBytesDiscrete(fwdLen))
	}
	return total + int64(wan.WireBytesDiscrete(partialLen))
}
