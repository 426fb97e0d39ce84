package jobspec

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"emuchick/internal/experiments"
)

// The content address of a Spec must hash exactly the fields that shape the
// simulated workload, and none that merely change how it is driven — the
// same soundness argument the checkpoint fingerprint makes. Rather than
// restate that classification here (and let the two drift), the hash is
// keyed by the experiments.OptionFields table: every In-classified
// experiments option folds its jobspec value into the digest, every
// Out-classified one is skipped, and an In field jobspec does not know yet
// folds in as a constant marker — which versions the key space, so caches
// invalidate instead of silently colliding when the option vocabulary
// grows.

// Fingerprint returns the 16-hex-digit content address of the canonical
// spec. Two specs share a fingerprint iff they describe the same workload:
// drive-side fields (parallel, checkpoint policy, QoS) do not participate.
func (s Spec) Fingerprint() string {
	c := s.Canonical()
	h := sha256.New()
	io.WriteString(h, "jobspec/1;")
	fmt.Fprintf(h, "experiment=%s;kernel=%s;", c.Experiment, c.Kernel)
	if c.Kernel != "" {
		// Machine and params exist only for kernel jobs; canonical JSON of
		// the merged params keeps the digest stable across field additions
		// (omitempty drops unset fields).
		pb, err := json.Marshal(c.Params)
		if err != nil {
			// A params struct of plain ints and strings cannot fail to
			// marshal; if it ever does, poison the key rather than collide.
			pb = []byte(fmt.Sprintf("unmarshalable=%+v", c.Params))
		}
		fmt.Fprintf(h, "machine=%s/%d;params=%s;", c.Machine.Name, c.Machine.Nodes, pb)
	}
	for _, field := range workloadFields() {
		switch field {
		case "Trials":
			fmt.Fprintf(h, "trials=%d;", c.Trials)
		case "Quick":
			fmt.Fprintf(h, "quick=%t;", c.Scale == ScaleQuick)
		case "Faults":
			fmt.Fprintf(h, "faults=%s;", c.Faults)
		case "FaultSeed":
			fmt.Fprintf(h, "faultseed=%d;", c.FaultSeed)
		default:
			// Workload-shaping option jobspec cannot express yet: fold the
			// name in as a version marker (see package comment above).
			fmt.Fprintf(h, "unmapped=%s;", field)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// workloadFields lists the In-classified fields of the experiments options
// struct in deterministic order.
func workloadFields() []string {
	var in []string
	for name, class := range experiments.OptionFields {
		if class == experiments.OptionIn {
			in = append(in, name)
		}
	}
	sort.Strings(in)
	return in
}
