package prins

import (
	"errors"
	"fmt"
	"net"
	"strconv"

	"prins/internal/core"
	"prins/internal/iscsi"
)

// Multi-volume façade.
//
// A storage node serves many logical volumes; shipping each volume
// over its own TCP session wastes WAN connections and loses the
// batching opportunities of a shared pipe. VolumeManager runs one
// (sharded) replication engine per volume and multiplexes all of their
// push streams over shared replica sessions — the wire tags every
// frame with its (volume, shard) stream, and the replica node
// demultiplexes. Volumes share sessions, not fate: a replica going
// degraded for one volume keeps replicating the others.

// Volume is one logical volume managed by a VolumeManager. It
// implements Store: reads and writes go to the volume's local device,
// writes replicate through the shared sessions.
type Volume struct {
	id  uint16
	eng *core.Engine
}

var _ Store = (*Volume)(nil)

// ID returns the volume id (1..65535).
func (v *Volume) ID() uint16 { return v.id }

// ReadBlock implements Store.
func (v *Volume) ReadBlock(lba uint64, buf []byte) error { return v.eng.ReadBlock(lba, buf) }

// WriteBlock implements Store: local write plus tagged replication.
func (v *Volume) WriteBlock(lba uint64, data []byte) error { return v.eng.WriteBlock(lba, data) }

// BlockSize implements Store.
func (v *Volume) BlockSize() int { return v.eng.BlockSize() }

// NumBlocks implements Store.
func (v *Volume) NumBlocks() uint64 { return v.eng.NumBlocks() }

// Close implements Store as a no-op: the manager owns the engine
// lifecycle (DetachVolume or VolumeManager.Close stop replication) and
// the caller owns the backing store.
func (v *Volume) Close() error { return nil }

// Drain blocks until this volume's queued replication has shipped and
// reports its first asynchronous replication error.
func (v *Volume) Drain() error { return v.eng.Drain() }

// Degraded reports whether any replica has been dropped from this
// volume's live replication.
func (v *Volume) Degraded() bool { return v.eng.Degraded() }

// Stats snapshots this volume's replication counters.
func (v *Volume) Stats() Stats { return engineStats(v.eng) }

// ReplicaStats reports this volume's state on each replica of its set,
// in attach order.
func (v *Volume) ReplicaStats() []ReplicaStat { return replicaStats(v.eng) }

// ShardStats reports this volume's per-shard counters.
func (v *Volume) ShardStats() []ShardStat {
	snaps := v.eng.ShardStats()
	out := make([]ShardStat, len(snaps))
	for i, s := range snaps {
		out[i] = ShardStat{Writes: s.Writes, Skipped: s.Skipped, Shipped: s.Shipped, Dropped: s.Dropped}
	}
	return out
}

// VolumeManager multiplexes many logical volumes over shared replica
// sessions. Every volume gets its own replication engine built from
// the manager's Config (Shards included); AttachReplicaAddr opens one
// session shared by all volumes, present and future.
type VolumeManager struct {
	vm     *core.VolumeManager
	target *iscsi.Target
	conns  []*iscsi.Initiator
	vols   map[uint16]*Volume
}

// NewVolumeManager validates cfg and returns an empty manager. Volume
// ids are 1..65535 (0 is the wire's untagged default and stays
// reserved for standalone primaries). Volumes mirror: a cfg with GroupN
// set is refused rather than silently ignored.
func NewVolumeManager(cfg Config) (*VolumeManager, error) {
	if cfg.GroupN > 0 {
		return nil, errors.New("prins: a volume manager mirrors; GroupK/GroupN do not apply")
	}
	vm, err := core.NewVolumeManager(coreConfig(cfg))
	if err != nil {
		return nil, err
	}
	return &VolumeManager{vm: vm, vols: make(map[uint16]*Volume)}, nil
}

// AddVolume creates volume id over local and starts replicating it
// through every shared session.
func (m *VolumeManager) AddVolume(id uint16, local Store) (*Volume, error) {
	eng, err := m.vm.AddVolume(id, local)
	if err != nil {
		return nil, err
	}
	v := &Volume{id: id, eng: eng}
	m.vols[id] = v
	return v, nil
}

// Volume returns the handle for volume id, or nil.
func (m *VolumeManager) Volume(id uint16) *Volume { return m.vols[id] }

// Volumes lists the managed volume ids in ascending order.
func (m *VolumeManager) Volumes() []uint16 { return m.vm.Volumes() }

// DetachVolume drains and stops replication for volume id and forgets
// it. The backing store stays open (the caller owns it).
func (m *VolumeManager) DetachVolume(id uint16) error {
	delete(m.vols, id)
	return m.vm.DetachVolume(id)
}

// AttachReplicaAddr opens one session to the replica node serving
// exportName at addr and shares it across every volume, present and
// future. The replica node must host a matching volume set (prinsd's
// replica role with -volumes does).
func (m *VolumeManager) AttachReplicaAddr(addr, exportName string) error {
	init, err := iscsi.Dial(addr)
	if err != nil {
		return err
	}
	if err := init.Login(exportName); err != nil {
		_ = init.Close()
		return err
	}
	for _, id := range m.vm.Volumes() {
		eng := m.vm.Volume(id)
		bs, nb := eng.Geometry()
		if init.BlockSize() != bs || init.NumBlocks() < nb {
			_ = init.Close()
			return fmt.Errorf("prins: replica %s geometry %dx%d incompatible with volume %d (%dx%d)",
				addr, init.NumBlocks(), init.BlockSize(), id, nb, bs)
		}
	}
	if err := m.vm.AttachReplica(init); err != nil {
		_ = init.Close()
		return err
	}
	m.conns = append(m.conns, init)
	return nil
}

// Serve exports every volume as "<exportPrefix>.<id>" so applications
// mount volumes individually. Returns the bound address.
func (m *VolumeManager) Serve(addr, exportPrefix string) (net.Addr, error) {
	if m.target == nil {
		m.target = iscsi.NewTarget()
	}
	for _, id := range m.vm.Volumes() {
		m.target.Export(volumeExport(exportPrefix, id), m.vm.Volume(id))
	}
	return m.target.Listen(addr)
}

// Drain drains every volume and reports the first asynchronous
// replication error across them.
func (m *VolumeManager) Drain() error { return m.vm.Drain() }

// Close drains and stops every volume's replication, stops serving,
// and closes the shared sessions. Backing stores stay open.
func (m *VolumeManager) Close() error {
	err := m.vm.Close()
	if m.target != nil {
		if cerr := m.target.Close(); err == nil {
			err = cerr
		}
	}
	for _, c := range m.conns {
		_ = c.Close()
	}
	m.conns = nil
	return err
}

// volumeExport names volume id's control-path export under prefix.
func volumeExport(prefix string, id uint16) string {
	return prefix + "." + strconv.Itoa(int(id))
}

// ReplicaVolumes is the replica-node counterpart of VolumeManager: it
// hosts one Replica per volume id behind a single export. Tagged
// pushes from the shared primary sessions route to their volume by the
// wire's stream tag; each volume is additionally exported as
// "<export>.<id>" for the control path (initial sync, resync, scrub),
// which is untagged READ/WRITE traffic.
type ReplicaVolumes struct {
	set    *core.ReplicaSet
	target *iscsi.Target
	vols   map[uint16]*Replica
}

// NewReplicaVolumes returns an empty set; add volumes before serving.
func NewReplicaVolumes() *ReplicaVolumes {
	return &ReplicaVolumes{set: core.NewReplicaSet(), vols: make(map[uint16]*Replica)}
}

// AddVolume registers r as volume id. All volumes must share one
// geometry (the push export answers a single login's geometry).
func (rv *ReplicaVolumes) AddVolume(id uint16, r *Replica) error {
	if err := rv.set.AddVolume(id, r.engine); err != nil {
		return err
	}
	rv.vols[id] = r
	return nil
}

// Volume returns volume id's Replica, or nil.
func (rv *ReplicaVolumes) Volume(id uint16) *Replica { return rv.vols[id] }

// RemoveVolume stops hosting volume id. Tagged pushes for it are
// refused from then on — primaries degrade that volume and track its
// gap, while other volumes on the same sessions keep replicating.
func (rv *ReplicaVolumes) RemoveVolume(id uint16) error {
	if err := rv.set.RemoveVolume(id); err != nil {
		return err
	}
	delete(rv.vols, id)
	return nil
}

// Serve exposes the volume set: exportName accepts the multiplexed
// push streams, and each volume is also exported as "<exportName>.<id>"
// for per-volume control-path access. Returns the bound address.
func (rv *ReplicaVolumes) Serve(addr, exportName string) (net.Addr, error) {
	if rv.target == nil {
		rv.target = iscsi.NewTarget()
	}
	rv.target.Export(exportName, rv.set)
	for id, r := range rv.vols {
		rv.target.Export(volumeExport(exportName, id), r.engine)
	}
	return rv.target.Listen(addr)
}

// Close stops serving and releases every volume's journal, if any.
func (rv *ReplicaVolumes) Close() error {
	var err error
	if rv.target != nil {
		err = rv.target.Close()
	}
	for _, r := range rv.vols {
		if r.jrnl != nil {
			if jerr := r.jrnl.Close(); err == nil {
				err = jerr
			}
		}
	}
	return err
}
