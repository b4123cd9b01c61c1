package evalcache

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"
)

// Artifact is the exportable form of one workload's warm state: the winning
// strategy (in the strategy-JSON wire format) plus enough metadata to decide
// whether it is worth importing. It is the unit of the peer warm-cache
// exchange — a replica that planned a workload exports its artifact under the
// workload key; a peer cold on the same key fetches it and plans with the
// strategy (heterog.WithWarmStrategy), which primes its caches and is kept
// if its own search cannot beat it — and of restart warm-starting, where a
// file-store server re-imports its own artifacts after a crash.
//
// The full compiled lowered artifact (internal/plan.Artifacts) is deliberately
// NOT serialized: it is megabytes of IR that any replica can re-derive from
// the strategy in one compile, so the exchange ships the few-KB strategy and
// lets the importer's lowered cache rebuild itself.
type Artifact struct {
	Version int `json:"version"`
	// Workload is the hex WorkloadFingerprint-derived key the exporter filed
	// this artifact under (including any fault-configuration folding).
	Workload string `json:"workload"`
	// Node names the exporting replica ("" for anonymous exports).
	Node string `json:"node,omitempty"`
	// Model, Batch and Cluster describe the workload for logs and the peer
	// index; NumOps guards imports (a strategy only loads against a graph
	// with the same op count).
	Model   string `json:"model"`
	Batch   int    `json:"batch"`
	Cluster string `json:"cluster,omitempty"`
	NumOps  int    `json:"num_ops"`
	// PerIterSec is the exported plan's per-iteration time on the exporter's
	// view — the importer's yardstick for whether the seed is plausible.
	PerIterSec float64 `json:"per_iter_sec"`
	// Strategy is the winning strategy in the strategy-JSON wire format.
	Strategy  json.RawMessage `json:"strategy"`
	CreatedAt time.Time       `json:"created_at"`
}

// ArtifactVersion is the current wire version of Artifact.
const ArtifactVersion = 1

// Encode validates and marshals the artifact for storage or peer transfer.
func (a *Artifact) Encode() ([]byte, error) {
	if a.Version == 0 {
		a.Version = ArtifactVersion
	}
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("evalcache: artifact version %d not supported", a.Version)
	}
	if a.Workload == "" {
		return nil, fmt.Errorf("evalcache: artifact needs a workload key")
	}
	if len(a.Strategy) == 0 || !json.Valid(a.Strategy) {
		return nil, fmt.Errorf("evalcache: artifact needs a valid strategy payload")
	}
	return json.Marshal(a)
}

// DecodeArtifact parses and validates an artifact blob.
func DecodeArtifact(blob []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(blob, &a); err != nil {
		return nil, fmt.Errorf("evalcache: decode artifact: %w", err)
	}
	if a.Version != ArtifactVersion {
		return nil, fmt.Errorf("evalcache: artifact version %d not supported", a.Version)
	}
	if a.Workload == "" || len(a.Strategy) == 0 || !json.Valid(a.Strategy) {
		return nil, fmt.Errorf("evalcache: artifact missing workload key or strategy")
	}
	return &a, nil
}

// Hex renders a cache key as the lowercase hex string used as its artifact
// filename, peer-API path segment and index entry.
func (k Key) Hex() string { return hex.EncodeToString(k[:]) }

// ParseKey parses a full-length lowercase-hex key (the inverse of Key.Hex).
func ParseKey(s string) (Key, error) {
	var k Key
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(k) {
		return k, fmt.Errorf("evalcache: bad key %q", s)
	}
	copy(k[:], raw)
	return k, nil
}
