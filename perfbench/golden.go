package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// goldenJSON pins the outputs of every workload at defaultSeed: the
// final StateHash and the deterministic work counters of each simulator
// run, and the service plan's key multiset plus the hash of its sorted
// (key, StateHash) list. Regenerate an entry with -print-golden only in
// a change that is meant to alter simulation results.
//
//go:embed golden.json
var goldenJSON []byte

// goldenRun is the pinned outcome of one simulator run.
type goldenRun struct {
	N           int    `json:"n"`
	Seed        int64  `json:"seed"`
	StateHash   string `json:"stateHash"`
	Events      uint64 `json:"events"`
	PacketsSent uint64 `json:"packetsSent"`
	Wakeups     uint64 `json:"wakeups"`
}

// goldenService is the pinned outcome of the service plan.
type goldenService struct {
	Jobs            int    `json:"jobs"`
	KeyMultisetHash string `json:"keyMultisetHash"`
	ResultListHash  string `json:"resultListHash"`
	// Probe holds a few plan keys with their StateHash; every run
	// re-executes them directly, whatever its seed.
	Probe []goldenRun `json:"probe"`
}

type goldenFile struct {
	Seed        int64         `json:"seed"`
	SimLifetime []goldenRun   `json:"sim-lifetime"`
	SimProtocol []goldenRun   `json:"sim-protocol"`
	ServiceMix  goldenService `json:"service-mix"`
}

func loadGolden() (*goldenFile, error) {
	var g goldenFile
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("golden.json: %w", err)
	}
	if g.Seed != defaultSeed {
		return nil, fmt.Errorf("golden.json pins seed %d, want %d", g.Seed, defaultSeed)
	}
	return &g, nil
}

// printGolden computes the workload's golden entry at defaultSeed and
// prints it as JSON.
func printGolden(name string) error {
	var entry any
	switch name {
	case "sim-lifetime", "sim-protocol":
		runs, err := (&simWorkload{name: name, lifetime: name == "sim-lifetime"}).golden()
		if err != nil {
			return err
		}
		entry = runs
	case "service-mix":
		svc, err := (&serviceWorkload{}).golden()
		if err != nil {
			return err
		}
		entry = svc
	}
	out, err := json.MarshalIndent(map[string]any{name: entry}, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(os.Stdout, string(out))
	return err
}
