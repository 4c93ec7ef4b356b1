package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
)

// reference.json pins every result digest of every workload at the default
// seed. A run at that seed whose digests differ fails the correctness gate.
// Regenerate (only after an intended change of simulated results) with
//
//	bash perfbench/run.sh --workload <name> --seed 0 --seconds 1 --update-reference perfbench/reference.json
//
//go:embed reference.json
var referenceJSON []byte

const referenceSeed = 0

type referenceFile struct {
	Seed      int64                        `json:"seed"`
	Workloads map[string]referenceWorkload `json:"workloads"`
}

type referenceWorkload struct {
	Scale   float64           `json:"scale"`
	Warps   int               `json:"warps"`
	Digests map[string]string `json:"digests"`
}

func parseReference(data []byte) (referenceFile, error) {
	var ref referenceFile
	if err := json.Unmarshal(data, &ref); err != nil {
		return ref, fmt.Errorf("reference: %w", err)
	}
	if ref.Workloads == nil {
		ref.Workloads = map[string]referenceWorkload{}
	}
	return ref, nil
}

// checkReference compares digests with the committed reference when seed is
// the reference seed, and always for serve-mixed, whose results do not depend
// on the seed (serveSessionSeed). A key that another workload pins at the
// same scale and warps must match there too, so one simulation gives one
// answer whether it ran in a Warm sweep or behind the service.
func checkReference(w workloadDef, seed int64, digests map[string]string) error {
	if seed != referenceSeed && !w.serve {
		return nil
	}
	ref, err := parseReference(referenceJSON)
	if err != nil {
		return err
	}
	own, ok := ref.Workloads[w.name]
	if !ok {
		return fmt.Errorf("reference has no digests for %s", w.name)
	}
	if err := compareDigests("reference "+w.name, own.Digests, digests); err != nil {
		return err
	}
	for name, other := range ref.Workloads {
		if name == w.name || other.Scale != w.scale || other.Warps != w.warps {
			continue
		}
		shared := map[string]string{}
		for k, d := range other.Digests {
			if _, ok := digests[k]; ok {
				shared[k] = d
			}
		}
		mine := map[string]string{}
		for k := range shared {
			mine[k] = digests[k]
		}
		if err := compareDigests("reference "+name+" (shared keys)", shared, mine); err != nil {
			return err
		}
	}
	return nil
}

// updateReference rewrites w's entry of the reference file at path.
func updateReference(path string, w workloadDef, digests map[string]string) error {
	ref := referenceFile{Seed: referenceSeed, Workloads: map[string]referenceWorkload{}}
	if data, err := os.ReadFile(path); err == nil {
		if ref, err = parseReference(data); err != nil {
			return err
		}
	}
	ref.Workloads[w.name] = referenceWorkload{Scale: w.scale, Warps: w.warps, Digests: digests}
	data, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
