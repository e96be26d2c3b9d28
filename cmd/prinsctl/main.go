// Command prinsctl is the client tool for prinsd nodes: it mounts an
// export and reads, writes, verifies, or load-tests it.
//
//	prinsctl -addr host:3260 -export vol0 info
//	prinsctl -addr host:3260 -export vol0 read  -lba 17
//	prinsctl -addr host:3260 -export vol0 write -lba 17 -data "hello"
//	prinsctl -addr host:3260 -export vol0 bench -writes 1000 -dirty 0.1
//	prinsctl -addr host:3260 -export vol0 verify -against host2:3260/vol0
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"prins"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "prinsctl:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("prinsctl", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", "127.0.0.1:3260", "node address")
		exportName = fs.String("export", "vol0", "export name")
		lba        = fs.Uint64("lba", 0, "block address for read/write")
		data       = fs.String("data", "", "write payload (padded with zeros)")
		writes     = fs.Int("writes", 1000, "bench: number of writes")
		dirty      = fs.Float64("dirty", 0.1, "bench: fraction of each block dirtied")
		seed       = fs.Int64("seed", 1, "bench: RNG seed")
		against    = fs.String("against", "", "verify: second endpoint host:port/export")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("want exactly one command: info, read, write, bench, verify, resync")
	}

	dev, err := prins.Dial(*addr, *exportName)
	if err != nil {
		return err
	}
	defer dev.Close()

	switch cmd := fs.Arg(0); cmd {
	case "info":
		fmt.Printf("export %q at %s: %d blocks x %dB = %d bytes\n",
			*exportName, *addr, dev.NumBlocks(), dev.BlockSize(),
			dev.NumBlocks()*uint64(dev.BlockSize()))
		return dev.Logout()

	case "read":
		buf := make([]byte, dev.BlockSize())
		if err := dev.ReadBlock(*lba, buf); err != nil {
			return err
		}
		fmt.Print(hex.Dump(buf))
		return dev.Logout()

	case "write":
		buf := make([]byte, dev.BlockSize())
		copy(buf, *data)
		if err := dev.WriteBlock(*lba, buf); err != nil {
			return err
		}
		fmt.Printf("wrote block %d\n", *lba)
		return dev.Logout()

	case "bench":
		rng := rand.New(rand.NewSource(*seed))
		buf := make([]byte, dev.BlockSize())
		span := int(float64(dev.BlockSize()) * *dirty)
		if span < 1 {
			span = 1
		}
		start := time.Now()
		for i := 0; i < *writes; i++ {
			l := uint64(rng.Intn(int(dev.NumBlocks())))
			if err := dev.ReadBlock(l, buf); err != nil {
				return err
			}
			off := rng.Intn(dev.BlockSize() - span + 1)
			rng.Read(buf[off : off+span])
			if err := dev.WriteBlock(l, buf); err != nil {
				return err
			}
		}
		elapsed := time.Since(start)
		fmt.Printf("%d read-modify-writes in %v (%.0f ops/s)\n",
			*writes, elapsed.Round(time.Millisecond),
			float64(*writes)/elapsed.Seconds())
		return dev.Logout()

	case "resync":
		if *against == "" {
			return fmt.Errorf("resync needs -against host:port/export (the replica to repair)")
		}
		i := strings.LastIndex(*against, "/")
		if i <= 0 || i == len(*against)-1 {
			return fmt.Errorf("bad -against %q", *against)
		}
		start := time.Now()
		stats, err := prins.Resync(dev, (*against)[:i], (*against)[i+1:], false)
		if err != nil {
			return err
		}
		fmt.Printf("scanned %d blocks in %d hash fetches, repaired %d in %d writes (hashes %dB, data %dB, sent %dB, wire ~%dB) in %v\n",
			stats.BlocksScanned, stats.HashFetches, stats.BlocksRepaired, stats.RepairWrites,
			stats.HashBytes, stats.DataBytes, stats.SentBytes, stats.WireBytes, time.Since(start).Round(time.Millisecond))
		return dev.Logout()

	case "verify":
		if *against == "" {
			return fmt.Errorf("verify needs -against host:port/export")
		}
		i := strings.LastIndex(*against, "/")
		if i <= 0 || i == len(*against)-1 {
			return fmt.Errorf("bad -against %q", *against)
		}
		other, err := prins.Dial((*against)[:i], (*against)[i+1:])
		if err != nil {
			return err
		}
		defer other.Close()
		eq, err := prins.Equal(dev, other)
		if err != nil {
			return err
		}
		if !eq {
			return fmt.Errorf("devices differ")
		}
		fmt.Println("devices identical")
		return dev.Logout()

	default:
		return fmt.Errorf("unknown command %q", cmd)
	}
}
