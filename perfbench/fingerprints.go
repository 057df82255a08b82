package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

// fingerprintsJSON records, for the default seed, the hash of every
// generated input. A change to a generator or to the workload constants
// changes a workload; this check makes that show as a failed run
// instead of a silent shift in the numbers.
//
//go:embed fingerprints.json
var fingerprintsJSON []byte

type recordedFingerprints struct {
	Seed      uint64                       `json:"seed"`
	Workloads map[string]map[string]string `json:"workloads"`
}

// checkFingerprints compares a run's input hashes with the recorded
// ones when the run uses the recorded seed; other seeds are not checked.
func checkFingerprints(workload string, seed uint64, got map[string]string) error {
	var rec recordedFingerprints
	if err := json.Unmarshal(fingerprintsJSON, &rec); err != nil {
		return fmt.Errorf("fingerprints.json: %w", err)
	}
	if seed != rec.Seed {
		return nil
	}
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if want := rec.Workloads[workload][k]; got[k] != want {
			return fmt.Errorf("input %s of %s at seed %d hashes to %s, fingerprints.json records %q: the workload changed",
				k, workload, seed, got[k], want)
		}
	}
	return nil
}
