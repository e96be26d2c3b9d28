package main

import (
	"os"
	"runtime"
	"strconv"
	"strings"
)

// environment is what a reader needs to judge a number: the machine,
// and the two things this sandbox cannot give (a real link, a real
// flush).
type environment struct {
	GoVersion   string  `json:"go_version"`
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	CPUModel    string  `json:"cpu_model"`
	Load1       float64 `json:"load1"`
	Network     string  `json:"network"`
	FlushPolicy string  `json:"flush_policy"`
	Sync        bool    `json:"sync_writes"`
}

func readEnvironment(sp spec) *environment {
	e := &environment{
		GoVersion:   runtime.Version(),
		NProc:       runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		CPUModel:    "unknown",
		Network:     "loopback TCP; link delay and rate emulated by wan.Shape on the sender",
		FlushPolicy: "memory-backed stores and journal; Sync is a no-op, no device flush",
		Sync:        !sp.engine.Async,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				e.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/loadavg"); err == nil {
		if f := strings.Fields(string(data)); len(f) > 0 {
			e.Load1, _ = strconv.ParseFloat(f[0], 64)
		}
	}
	return e
}
