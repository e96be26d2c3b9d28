package core

import (
	"fmt"
	"sort"
	"sync"

	"prins/internal/block"
	"prins/internal/iscsi"
)

// Multi-volume management.
//
// A storage node rarely serves one device: the paper's Internet
// storage serves many logical volumes to many clients over shared WAN
// sessions. VolumeManager is the primary-side multiplexer — one Engine
// per logical volume, every engine tagged with its volume id, all of
// them shipping through the same shared ReplicaClients (and,
// implicitly, the same process-wide frame pool). ReplicaSet is the
// replica-side counterpart: it fans stream-tagged pushes out to the
// right per-volume ReplicaEngine by the vol field of the wire tag.
//
// Isolation property: volumes share sessions, not fate. Each volume's
// engine keeps its own replicaState per attached client, so a volume
// whose pushes fail (and degrade, under AllowDegraded) does not stall
// or degrade another volume multiplexed over the same session. Nor do
// they share round trips: iscsi.Initiator keeps one push in flight per
// (volume, shard) stream, not per connection, so one volume's push
// never waits out another volume's link delay.

// VolumeManager multiplexes many logical volumes — one sharded Engine
// each — over a shared set of replica clients. Volume ids are 1..65535:
// id 0 is the wire's untagged default stream and stays reserved for
// standalone engines.
type VolumeManager struct {
	mu      sync.Mutex
	base    Config
	vols    map[uint16]*Engine
	clients []ReplicaClient
}

// NewVolumeManager validates the per-volume config template. The
// template's Volume field must be zero — each AddVolume stamps its own
// id into its engine's streams.
func NewVolumeManager(base Config) (*VolumeManager, error) {
	if base.Volume != 0 {
		return nil, fmt.Errorf("core: volume manager config must leave Volume 0, got %d", base.Volume)
	}
	if err := base.Validate(); err != nil {
		return nil, err
	}
	return &VolumeManager{base: base, vols: make(map[uint16]*Engine)}, nil
}

// AddVolume creates the engine for a new logical volume over store and
// attaches every already-shared replica client to it. The engine
// inherits the manager's config template (shards included) with Volume
// set to id.
func (vm *VolumeManager) AddVolume(id uint16, store block.Store) (*Engine, error) {
	if id == 0 {
		return nil, fmt.Errorf("core: volume id 0 is reserved for the untagged default stream")
	}
	eng, err := vm.addVolumeLocked(id, store)
	if err != nil {
		if eng != nil {
			// The half-built engine was never published in vm.vols, so
			// nothing else can reach it; close it outside vm.mu because
			// Close waits on the engine's pipeline goroutines.
			_ = eng.Close()
		}
		return nil, err
	}
	return eng, nil
}

func (vm *VolumeManager) addVolumeLocked(id uint16, store block.Store) (*Engine, error) {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	if _, ok := vm.vols[id]; ok {
		return nil, fmt.Errorf("core: volume %d already exists", id)
	}
	cfg := vm.base
	cfg.Volume = id
	eng, err := NewEngine(store, cfg)
	if err != nil {
		return nil, err
	}
	for _, rc := range vm.clients {
		if err := eng.AttachReplica(rc); err != nil {
			return eng, err
		}
	}
	vm.vols[id] = eng
	return eng, nil
}

// AttachReplica shares one replica client with every
// volume, present and future. All volumes' pipelines push through it
// concurrently; the replica side demultiplexes by the (vol, shard)
// stream tag.
func (vm *VolumeManager) AttachReplica(rc ReplicaClient) error {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	for _, id := range vm.idsLocked() {
		if err := vm.vols[id].AttachReplica(rc); err != nil {
			return err
		}
	}
	vm.clients = append(vm.clients, rc)
	return nil
}

// Volume returns the engine serving volume id, or nil.
func (vm *VolumeManager) Volume(id uint16) *Engine {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return vm.vols[id]
}

// Volumes lists the managed volume ids in ascending order.
func (vm *VolumeManager) Volumes() []uint16 {
	vm.mu.Lock()
	defer vm.mu.Unlock()
	return vm.idsLocked()
}

func (vm *VolumeManager) idsLocked() []uint16 {
	ids := make([]uint16, 0, len(vm.vols))
	for id := range vm.vols {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// DetachVolume drains and closes volume id's engine and removes it.
// The volume's store and the shared clients stay open (the caller owns
// them).
func (vm *VolumeManager) DetachVolume(id uint16) error {
	vm.mu.Lock()
	eng, ok := vm.vols[id]
	delete(vm.vols, id)
	vm.mu.Unlock()
	if !ok {
		return fmt.Errorf("core: no volume %d", id)
	}
	return eng.Close()
}

// Drain drains every volume's pipelines and returns the first sticky
// replication error across them.
func (vm *VolumeManager) Drain() error {
	vm.mu.Lock()
	ids := vm.idsLocked()
	vols := make([]*Engine, len(ids))
	for i, id := range ids {
		vols[i] = vm.vols[id]
	}
	vm.mu.Unlock()
	var firstErr error
	for _, eng := range vols {
		if err := eng.Drain(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// Close closes every volume's engine. Stores and shared clients remain
// open (the caller owns them).
func (vm *VolumeManager) Close() error {
	vm.mu.Lock()
	ids := vm.idsLocked()
	vols := make([]*Engine, len(ids))
	for i, id := range ids {
		vols[i] = vm.vols[id]
	}
	vm.vols = make(map[uint16]*Engine)
	vm.mu.Unlock()
	var firstErr error
	for _, eng := range vols {
		if err := eng.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ReplicaSet is the replica-side volume demultiplexer: one
// ReplicaEngine per volume id, exported through a single target
// backend. Pushes of every shape route to their volume's engine by the
// wire tag, an untagged push to volume 0's stream (0, 0); the READ/WRITE
// control path an initial sync or resync drives routes to volume 0, so
// register a volume 0 engine — or, for multi-volume nodes, export each
// volume's engine separately for control-path access (prinsd uses
// "<export>.<id>").
//
// All volumes must share one geometry, because the set answers a
// single target login's Geometry.
type ReplicaSet struct {
	mu   sync.RWMutex
	vols map[uint16]*ReplicaEngine
	bs   int
	nb   uint64
}

var (
	_ iscsi.Backend            = (*ReplicaSet)(nil)
	_ iscsi.StreamBatchBackend = (*ReplicaSet)(nil)
	_ iscsi.SqueezeBackend     = (*ReplicaSet)(nil)
)

// NewReplicaSet returns an empty set; add volumes before serving.
func NewReplicaSet() *ReplicaSet {
	return &ReplicaSet{vols: make(map[uint16]*ReplicaEngine)}
}

// AddVolume registers re as volume id. Every volume must match the
// first volume's geometry.
func (s *ReplicaSet) AddVolume(id uint16, re *ReplicaEngine) error {
	bs, nb := re.Geometry()
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.vols[id]; ok {
		return fmt.Errorf("core: volume %d already exists", id)
	}
	if len(s.vols) == 0 {
		s.bs, s.nb = bs, nb
	} else if bs != s.bs || nb != s.nb {
		return fmt.Errorf("core: volume %d geometry %dx%d != set geometry %dx%d",
			id, nb, bs, s.nb, s.bs)
	}
	s.vols[id] = re
	return nil
}

// Volume returns volume id's engine, or nil.
func (s *ReplicaSet) Volume(id uint16) *ReplicaEngine {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.vols[id]
}

// Volumes lists the registered volume ids in ascending order.
func (s *ReplicaSet) Volumes() []uint16 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]uint16, 0, len(s.vols))
	for id := range s.vols {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

// RemoveVolume unregisters volume id; its engine and store stay open.
func (s *ReplicaSet) RemoveVolume(id uint16) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.vols[id]; !ok {
		return fmt.Errorf("core: no volume %d", id)
	}
	delete(s.vols, id)
	return nil
}

// Geometry implements iscsi.Backend with the shared volume geometry.
func (s *ReplicaSet) Geometry() (int, uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bs, s.nb
}

// HandleRead implements iscsi.Backend against volume 0.
func (s *ReplicaSet) HandleRead(lba uint64, dst []byte) iscsi.Status {
	re := s.Volume(0)
	if re == nil {
		return iscsi.StatusBadRequest
	}
	return re.HandleRead(lba, dst)
}

// HandleWrite implements iscsi.Backend against volume 0.
func (s *ReplicaSet) HandleWrite(lba uint64, data []byte) iscsi.Status {
	re := s.Volume(0)
	if re == nil {
		return iscsi.StatusBadRequest
	}
	return re.HandleWrite(lba, data)
}

// HandleReplicaStream implements iscsi.Backend, routing by the wire
// tag's volume id; an untagged push is the (0, 0) stream of volume 0.
// A push for an unregistered volume is refused (not silently applied
// elsewhere).
func (s *ReplicaSet) HandleReplicaStream(mode, shard uint8, vol uint16, seq, lba, hash uint64, frame []byte) iscsi.Status {
	re := s.Volume(vol)
	if re == nil {
		return iscsi.StatusBadRequest
	}
	return re.HandleReplicaStream(mode, shard, vol, seq, lba, hash, frame)
}

// HandleReplicaBatchStream implements iscsi.StreamBatchBackend,
// routing by the wire tag's volume id: a reference resolves against its
// own volume's content index, never another volume's.
func (s *ReplicaSet) HandleReplicaBatchStream(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry) []iscsi.Status {
	re := s.Volume(vol)
	if re == nil {
		return refuseAll(len(entries), iscsi.StatusBadRequest)
	}
	return re.HandleReplicaBatchStream(mode, shard, vol, entries)
}

// HandleReplicaSqueezed implements iscsi.SqueezeBackend, routing by the
// wire tag's volume id, as the other two shapes are routed.
func (s *ReplicaSet) HandleReplicaSqueezed(mode, shard uint8, vol uint16, entries []iscsi.BatchEntry, digest uint64) []iscsi.Status {
	re := s.Volume(vol)
	if re == nil {
		return refuseAll(len(entries), iscsi.StatusBadRequest)
	}
	return re.HandleReplicaSqueezed(mode, shard, vol, entries, digest)
}
