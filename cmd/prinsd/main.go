// Command prinsd runs one PRINS storage node: it exports a block
// device over the iSCSI-flavoured protocol and, when replicas are
// configured, replicates every write to them in the chosen mode.
//
// A two-node mirror:
//
//	# replica machine
//	prinsd -listen :3260 -export vol0 -file replica.img -size 1024 -bs 8192 -role replica
//
//	# primary machine
//	prinsd -listen :3260 -export vol0 -file primary.img -size 1024 -bs 8192 \
//	       -mode prins -replica replicahost:3260/vol0
//
// Applications then mount the primary with prinsctl or the library's
// Dial.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"prins"
	"prins/internal/metrics"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prinsd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("prinsd", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", "127.0.0.1:3260", "address to serve on")
		exportName = fs.String("export", "vol0", "export name clients log in to")
		file       = fs.String("file", "", "backing file (empty = in-memory)")
		size       = fs.Uint64("size", 4096, "device size in blocks")
		bs         = fs.Int("bs", 8192, "block size in bytes")
		role       = fs.String("role", "primary", "primary or replica")
		mode       = fs.String("mode", "prins", "replication mode: prins, traditional, compressed")
		replicas   = fs.String("replica", "", "comma-separated replica endpoints host:port/export")
		statsEvery = fs.Duration("stats", 30*time.Second, "stats logging interval (0 = off)")

		shards  = fs.Int("shards", 1, "LBA-range shards per volume: independent write locks, seq spaces, and ship pipelines")
		volumes = fs.Int("volumes", 1, "logical volumes to serve; >1 multiplexes them over shared replica sessions")

		queueDepth    = fs.Int("queue-depth", 256, "ship queue depth per replica")
		batchFrames   = fs.Int("batch-frames", 32, "max frames drained into one batched push (1 = no batching)")
		retryAttempts = fs.Int("retry-attempts", 3, "replication push attempts before giving up on a replica")
		retryTimeout  = fs.Duration("retry-timeout", 10*time.Second, "per-attempt replication timeout (0 = none)")
		retryBackoff  = fs.Duration("retry-backoff", 250*time.Millisecond, "base backoff between push attempts, doubled with jitter")
		degraded      = fs.Bool("degraded", true, "keep serving writes locally when a replica is down (recover with resync)")
		journalPath   = fs.String("journal", "", "replica role: crash-safe apply journal file (empty = no journal)")
		scrubEvery    = fs.Duration("scrub-interval", 0, "primary role: background scrub pass interval per replica (0 = off)")
		scrubPause    = fs.Duration("scrub-pause", 2*time.Millisecond, "pause between scrub hash batches (rate limit; 0 = each pass is one pipelined resync)")

		dedupe     = fs.Int("dedupe", 0, "primary role: enable ship-by-reference dedupe with this many index entries per replica (0 = off, negative = default bound); replica role: resize its content index (0 = keep the default, negative = disable)")
		dedupeWarm = fs.Bool("dedupe-warm", false, "replica role: scan the device into the content index at startup so by-ref pushes resolve immediately after a restart")

		group = fs.String("group", "", "primary role: erasure-coded replica group shape k,n: writes stripe k-of-n across the replicas, replica i (in -replica order) storing unit i on a plain replica of block size ceil(bs/k), and commit on a k quorum (empty = mirror full copies)")

		repairFrom = fs.String("repair-from", "", "one-shot rebuild of a group unit, then exit: resync the unit from the primary's served logical export host:port/export (requires -group, -repair-lost, -repair-sink)")
		repairLost = fs.Int("repair-lost", -1, "unit index to rebuild with -repair-from")
		repairSink = fs.String("repair-sink", "", "group replica endpoint host:port/export to rebuild with -repair-from")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *volumes < 1 || *volumes > 65535 {
		return fmt.Errorf("bad -volumes %d (want 1..65535)", *volumes)
	}

	groupK, groupN, err := parseGroup(*group)
	if err != nil {
		return err
	}
	if groupN > 0 && *volumes > 1 {
		return fmt.Errorf("-group does not combine with -volumes %d", *volumes)
	}

	if *repairFrom != "" {
		return runRepair(groupK, groupN, *repairLost, *repairFrom, *repairSink)
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	if *volumes > 1 {
		m, err := parseMode(*mode)
		if err != nil {
			return err
		}
		return runVolumes(volumeOpts{
			listen: *listen, export: *exportName, file: *file, bs: *bs, size: *size,
			role: *role, volumes: *volumes, journal: *journalPath,
			replicas: *replicas, statsEvery: *statsEvery, stop: stop,
			dedupe: *dedupe, dedupeWarm: *dedupeWarm,
			cfg: prins.Config{
				Mode:          m,
				Async:         true,
				QueueDepth:    *queueDepth,
				SkipUnchanged: true,
				RetryAttempts: *retryAttempts,
				RetryTimeout:  *retryTimeout,
				RetryBackoff:  *retryBackoff,
				AllowDegraded: *degraded,
				DedupeEntries: *dedupe,
				BatchFrames:   *batchFrames,
				Shards:        *shards,
			},
		})
	}

	store, err := openStore(*file, *bs, *size)
	if err != nil {
		return err
	}
	defer store.Close()

	switch *role {
	case "replica":
		var replica *prins.Replica
		if *journalPath != "" {
			replica, err = prins.NewReplicaJournaled(store, *journalPath)
			if err != nil {
				return fmt.Errorf("open journal %s: %w", *journalPath, err)
			}
			log.Printf("prinsd: crash-safe apply journal at %s", *journalPath)
		} else {
			replica = prins.NewReplica(store)
		}
		if groupN > 0 {
			return fmt.Errorf("-group is a primary-role flag: a group member is a plain replica of a unit-sized device")
		}
		if *dedupe != 0 {
			replica.SetDedupe(*dedupe)
		}
		if *dedupeWarm {
			if err := replica.WarmDedupe(); err != nil {
				return fmt.Errorf("warm dedupe index: %w", err)
			}
			log.Printf("prinsd: content index warmed from %d blocks", store.NumBlocks())
		}
		addr, err := replica.Serve(*listen, *exportName)
		if err != nil {
			return err
		}
		defer replica.Close()
		log.Printf("prinsd: replica serving %q on %s (%d x %dB blocks)",
			*exportName, addr, store.NumBlocks(), store.BlockSize())
		<-stop
		return nil

	case "primary":
		m, err := parseMode(*mode)
		if err != nil {
			return err
		}
		primary, err := prins.NewPrimary(store, prins.Config{
			Mode:          m,
			Async:         true,
			QueueDepth:    *queueDepth,
			SkipUnchanged: true,
			RecordDensity: m == prins.ModePRINS,
			RetryAttempts: *retryAttempts,
			RetryTimeout:  *retryTimeout,
			RetryBackoff:  *retryBackoff,
			AllowDegraded: *degraded,
			DedupeEntries: *dedupe,
			BatchFrames:   *batchFrames,
			Shards:        *shards,
			GroupK:        groupK,
			GroupN:        groupN,
		})
		if err != nil {
			return err
		}
		defer primary.Close()
		if groupN > 0 {
			log.Printf("prinsd: %d-of-%d replica group, %dB stripe units, quorum commit at %d",
				groupK, groupN, primary.GroupUnitSize(), groupK)
		}

		if *replicas != "" {
			for _, ep := range strings.Split(*replicas, ",") {
				addr, export, err := splitEndpoint(ep)
				if err != nil {
					return err
				}
				if err := primary.AttachReplicaAddr(addr, export); err != nil {
					return fmt.Errorf("attach replica %s: %w", ep, err)
				}
				log.Printf("prinsd: replicating to %s (%s mode)", ep, m)
				if *scrubEvery > 0 {
					if err := primary.StartScrub(addr, export, *scrubEvery, *scrubPause); err != nil {
						return fmt.Errorf("start scrub %s: %w", ep, err)
					}
					log.Printf("prinsd: scrubbing %s every %s", ep, *scrubEvery)
				}
			}
		}

		addr, err := primary.Serve(*listen, *exportName)
		if err != nil {
			return err
		}
		log.Printf("prinsd: primary serving %q on %s (%d x %dB blocks)",
			*exportName, addr, store.NumBlocks(), store.BlockSize())

		if *statsEvery > 0 {
			ticker := time.NewTicker(*statsEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					s := primary.Stats()
					if primary.Degraded() {
						var lagged []string
						for i, rs := range primary.ReplicaStats() {
							if rs.Degraded {
								lagged = append(lagged, fmt.Sprintf("r%d:%d", i, rs.Lag))
							}
						}
						log.Printf("prinsd: DEGRADED lag=%d frames (%s); writes=%d shipped=%s saved=%.1fx retries=%d",
							primary.ReplicaLag(), strings.Join(lagged, " "), s.Writes, metrics.FormatBytes(s.PayloadBytes), s.SavingsVsRaw, s.Retries)
					} else {
						log.Printf("prinsd: writes=%d shipped=%s saved=%.1fx",
							s.Writes, metrics.FormatBytes(s.PayloadBytes), s.SavingsVsRaw)
					}
					if s.DedupeHits+s.DedupeMisses > 0 {
						log.Printf("prinsd: dedupe hits=%d misses=%d saved=%s",
							s.DedupeHits, s.DedupeMisses, metrics.FormatBytes(s.DedupeSavedWireBytes))
					}
					logSqueeze("", primary.ReplicaStats())
					if *scrubEvery > 0 {
						var sc prins.ScrubStats
						for _, one := range primary.ScrubStats() {
							sc.Passes += one.Passes
							sc.Scanned += one.Scanned
							sc.Diverged += one.Diverged
							sc.Repaired += one.Repaired
						}
						log.Printf("prinsd: scrub passes=%d scanned=%d diverged=%d repaired=%d",
							sc.Passes, sc.Scanned, sc.Diverged, sc.Repaired)
					}
				case <-stop:
					return primary.Drain()
				}
			}
		}
		<-stop
		return primary.Drain()

	default:
		return fmt.Errorf("unknown role %q (want primary or replica)", *role)
	}
}

// volumeOpts carries the flag set a multi-volume node needs.
type volumeOpts struct {
	listen, export, file string
	bs                   int
	size                 uint64
	role                 string
	volumes              int
	journal              string
	replicas             string
	statsEvery           time.Duration
	stop                 chan os.Signal
	dedupe               int
	dedupeWarm           bool
	cfg                  prins.Config
}

// runVolumes serves a multi-volume node: volume ids 1..N, each with
// its own backing store (file-backed stores use "<file>.<id>"), all
// multiplexed over shared replica sessions. The replica role hosts the
// matching volume set and demultiplexes pushes by the wire's stream
// tag.
func runVolumes(o volumeOpts) error {
	stores := make([]prins.Store, 0, o.volumes)
	defer func() {
		for _, s := range stores {
			_ = s.Close()
		}
	}()
	openVolStore := func(id uint16) (prins.Store, error) {
		path := o.file
		if path != "" {
			path = fmt.Sprintf("%s.%d", o.file, id)
		}
		s, err := openStore(path, o.bs, o.size)
		if err != nil {
			return nil, fmt.Errorf("volume %d: %w", id, err)
		}
		stores = append(stores, s)
		return s, nil
	}

	switch o.role {
	case "replica":
		rv := prins.NewReplicaVolumes()
		for id := uint16(1); int(id) <= o.volumes; id++ {
			store, err := openVolStore(id)
			if err != nil {
				return err
			}
			var r *prins.Replica
			if o.journal != "" {
				r, err = prins.NewReplicaJournaled(store, fmt.Sprintf("%s.%d", o.journal, id))
				if err != nil {
					return fmt.Errorf("volume %d journal: %w", id, err)
				}
			} else {
				r = prins.NewReplica(store)
			}
			if o.dedupe != 0 {
				r.SetDedupe(o.dedupe)
			}
			if o.dedupeWarm {
				if err := r.WarmDedupe(); err != nil {
					return fmt.Errorf("volume %d warm dedupe index: %w", id, err)
				}
			}
			if err := rv.AddVolume(id, r); err != nil {
				return err
			}
		}
		addr, err := rv.Serve(o.listen, o.export)
		if err != nil {
			return err
		}
		defer rv.Close()
		log.Printf("prinsd: replica serving %d volumes under %q on %s (%d x %dB blocks each)",
			o.volumes, o.export, addr, o.size, o.bs)
		<-o.stop
		return nil

	case "primary":
		vm, err := prins.NewVolumeManager(o.cfg)
		if err != nil {
			return err
		}
		defer vm.Close()
		for id := uint16(1); int(id) <= o.volumes; id++ {
			store, err := openVolStore(id)
			if err != nil {
				return err
			}
			if _, err := vm.AddVolume(id, store); err != nil {
				return err
			}
		}
		if o.replicas != "" {
			for _, ep := range strings.Split(o.replicas, ",") {
				addr, export, err := splitEndpoint(ep)
				if err != nil {
					return err
				}
				if err := vm.AttachReplicaAddr(addr, export); err != nil {
					return fmt.Errorf("attach replica %s: %w", ep, err)
				}
				log.Printf("prinsd: replicating %d volumes to %s (%s mode, shared session)",
					o.volumes, ep, o.cfg.Mode)
			}
		}
		addr, err := vm.Serve(o.listen, o.export)
		if err != nil {
			return err
		}
		log.Printf("prinsd: primary serving volumes %q.1..%d on %s (%d shards each)",
			o.export, o.volumes, addr, o.cfg.Shards)

		if o.statsEvery > 0 {
			ticker := time.NewTicker(o.statsEvery)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					for _, id := range vm.Volumes() {
						v := vm.Volume(id)
						s := v.Stats()
						state := ""
						if v.Degraded() {
							state = " DEGRADED"
						}
						log.Printf("prinsd: vol%d%s writes=%d shipped=%s saved=%.1fx",
							id, state, s.Writes, metrics.FormatBytes(s.PayloadBytes), s.SavingsVsRaw)
						if s.DedupeHits+s.DedupeMisses > 0 {
							log.Printf("prinsd: vol%d dedupe hits=%d misses=%d saved=%s",
								id, s.DedupeHits, s.DedupeMisses, metrics.FormatBytes(s.DedupeSavedWireBytes))
						}
						logSqueeze(fmt.Sprintf("vol%d ", id), v.ReplicaStats())
					}
				case <-o.stop:
					return vm.Drain()
				}
			}
		}
		<-o.stop
		return vm.Drain()

	default:
		return fmt.Errorf("unknown role %q (want primary or replica)", o.role)
	}
}

func openStore(file string, bs int, size uint64) (prins.Store, error) {
	if file == "" {
		return prins.NewMemStore(bs, size)
	}
	if _, err := os.Stat(file); err == nil {
		return prins.OpenFileStore(file, bs)
	}
	return prins.NewFileStore(file, bs, size)
}

// logSqueeze logs, for each replica whose pipelines shipped squeezed
// entries, how many, what squeezing saved on the wire and how often a
// gate switched; prefix names the volume, if any.
func logSqueeze(prefix string, stats []prins.ReplicaStat) {
	for i, rs := range stats {
		if rs.Squeezed > 0 {
			log.Printf("prinsd: %sr%d squeeze entries=%d saved=%s switches=%d",
				prefix, i, rs.Squeezed, metrics.FormatBytes(rs.SqueezeSavedWireBytes), rs.SqueezeSwitches)
		}
	}
}

func parseMode(s string) (prins.Mode, error) {
	switch s {
	case "prins":
		return prins.ModePRINS, nil
	case "traditional":
		return prins.ModeTraditional, nil
	case "compressed":
		return prins.ModeCompressed, nil
	default:
		return 0, fmt.Errorf("unknown mode %q", s)
	}
}

// parseGroup parses "-group k,n"; empty means mirroring (0, 0).
func parseGroup(s string) (k, n int, err error) {
	if s == "" {
		return 0, 0, nil
	}
	if _, err := fmt.Sscanf(s, "%d,%d", &k, &n); err != nil {
		return 0, 0, fmt.Errorf("bad -group %q (want k,n)", s)
	}
	if k < 1 || k > n {
		return 0, 0, fmt.Errorf("bad -group %q (want 1 <= k <= n)", s)
	}
	return k, n, nil
}

// runRepair rebuilds stripe unit lost onto the group replica at sink
// with a resync from the primary's logical export at from, and exits.
// The geometry comes from the mount.
func runRepair(k, n, lost int, from, sink string) error {
	if n == 0 {
		return fmt.Errorf("-repair-from needs -group k,n")
	}
	fromAddr, fromExport, err := splitEndpoint(from)
	if err != nil {
		return fmt.Errorf("-repair-from: %w", err)
	}
	sinkAddr, sinkExport, err := splitEndpoint(sink)
	if err != nil {
		return fmt.Errorf("-repair-sink: %w", err)
	}
	src, err := prins.Dial(fromAddr, fromExport)
	if err != nil {
		return fmt.Errorf("mount %s: %w", from, err)
	}
	defer src.Close()
	start := time.Now()
	st, err := prins.RepairGroupUnit(src, k, n, lost, sinkAddr, sinkExport)
	if err != nil {
		return err
	}
	log.Printf("prinsd: rebuilt unit %d: scanned %d blocks, repaired %d in %d writes (data %s, sent %s), %s on the wire in %s",
		lost, st.BlocksScanned, st.BlocksRepaired, st.RepairWrites, metrics.FormatBytes(st.DataBytes), metrics.FormatBytes(st.SentBytes),
		metrics.FormatBytes(st.WireBytes), time.Since(start).Round(time.Millisecond))
	return nil
}

func splitEndpoint(ep string) (addr, export string, err error) {
	i := strings.LastIndex(ep, "/")
	if i <= 0 || i == len(ep)-1 {
		return "", "", fmt.Errorf("bad replica endpoint %q (want host:port/export)", ep)
	}
	return ep[:i], ep[i+1:], nil
}
