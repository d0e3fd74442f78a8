package fleet

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"github.com/rac-project/rac/internal/core"
)

// Checkpoint is one tenant's durable snapshot: everything the fleet needs to
// warm-restart the tenant after a crash or planned restart. The agent state
// carries the sample table and the values its last retrain left, from which
// the agent derives its Q-table again, the last-known-good configuration,
// the violation counters and the context-detector window; the system blob
// (when the backend is snapshottable) carries the measurement stream
// mid-sequence.
type Checkpoint struct {
	// Tenant is the owning tenant's name.
	Tenant string `json:"tenant"`
	// Spec is the tenant's admission spec, so a restarted daemon can detect
	// config drift between the checkpoint and its config file.
	Spec TenantSpec `json:"spec"`
	// Interval is the number of completed measurement intervals.
	Interval int `json:"interval"`
	// WarmStarted records that the tenant started from a registry policy.
	WarmStarted bool `json:"warm_started,omitempty"`
	// Agent is the complete agent state (core.Agent.ExportState).
	Agent *core.AgentState `json:"agent"`
	// System is the backend's opaque state blob when it implements
	// system.Snapshottable; nil otherwise.
	System []byte `json:"system,omitempty"`
}

// Checkpoint file envelope: a fixed header in front of a JSON payload.
//
//	offset  size  field
//	0       8     magic "RACFLTCK"
//	8       4     format version (little endian)
//	12      8     payload length in bytes (little endian)
//	20      4     IEEE CRC-32 of the payload (little endian)
//	24      —     payload (JSON Checkpoint)
//
// The CRC catches torn or bit-rotted files; the explicit length catches
// truncation even when the truncated payload happens to be valid JSON.
const (
	checkpointMagic   = "RACFLTCK"
	checkpointVersion = 1
	checkpointHeader  = 8 + 4 + 8 + 4
	checkpointExt     = ".rac"
)

// ErrCorruptCheckpoint reports a checkpoint file that failed envelope
// validation (bad magic, version, length or CRC). Loaders fall back to the
// previous snapshot when they see it.
var ErrCorruptCheckpoint = errors.New("fleet: corrupt checkpoint")

// encodeCheckpoint renders the envelope bytes.
func encodeCheckpoint(ck *Checkpoint) ([]byte, error) {
	payload, err := json.Marshal(ck)
	if err != nil {
		return nil, fmt.Errorf("fleet: encode checkpoint: %w", err)
	}
	return sealCheckpoint(payload), nil
}

// sealCheckpoint puts a JSON payload in the envelope.
func sealCheckpoint(payload []byte) []byte {
	buf := make([]byte, checkpointHeader+len(payload))
	copy(buf[0:8], checkpointMagic)
	binary.LittleEndian.PutUint32(buf[8:12], checkpointVersion)
	binary.LittleEndian.PutUint64(buf[12:20], uint64(len(payload)))
	binary.LittleEndian.PutUint32(buf[20:24], crc32.ChecksumIEEE(payload))
	copy(buf[checkpointHeader:], payload)
	return buf
}

// decodeCheckpoint validates the envelope and unmarshals the payload. All
// validation failures wrap ErrCorruptCheckpoint.
func decodeCheckpoint(buf []byte) (*Checkpoint, error) {
	if len(buf) < checkpointHeader {
		return nil, fmt.Errorf("%w: %d bytes is shorter than the header", ErrCorruptCheckpoint, len(buf))
	}
	if string(buf[0:8]) != checkpointMagic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorruptCheckpoint, buf[0:8])
	}
	if v := binary.LittleEndian.Uint32(buf[8:12]); v != checkpointVersion {
		return nil, fmt.Errorf("%w: format version %d, want %d", ErrCorruptCheckpoint, v, checkpointVersion)
	}
	length := binary.LittleEndian.Uint64(buf[12:20])
	payload := buf[checkpointHeader:]
	if uint64(len(payload)) != length {
		return nil, fmt.Errorf("%w: payload is %d bytes, header says %d", ErrCorruptCheckpoint, len(payload), length)
	}
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(buf[20:24]) {
		return nil, fmt.Errorf("%w: CRC mismatch", ErrCorruptCheckpoint)
	}
	var ck Checkpoint
	if err := json.Unmarshal(payload, &ck); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptCheckpoint, err)
	}
	if ck.Agent == nil {
		return nil, fmt.Errorf("%w: no agent state", ErrCorruptCheckpoint)
	}
	return &ck, nil
}

// ReadCheckpointFile loads and validates one checkpoint file.
func ReadCheckpointFile(path string) (*Checkpoint, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(buf)
}

// CheckpointStore writes and prunes per-tenant checkpoint files under one
// directory (one subdirectory per tenant, one file per snapshot, newest
// interval wins). Writes are atomic: the envelope lands in a temp file that
// is fsynced and renamed into place, so a crash mid-write leaves the previous
// snapshot intact.
type CheckpointStore struct {
	dir  string
	keep int
}

// NewCheckpointStore roots a store at dir (created if missing), retaining the
// newest keep snapshots per tenant (minimum 2, so one corrupt write never
// leaves a tenant without a fallback).
func NewCheckpointStore(dir string, keep int) (*CheckpointStore, error) {
	if dir == "" {
		return nil, errors.New("fleet: empty checkpoint directory")
	}
	if keep < 2 {
		keep = 2
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("fleet: checkpoint dir: %w", err)
	}
	return &CheckpointStore{dir: dir, keep: keep}, nil
}

// tenantDir returns the per-tenant subdirectory, filesystem-safe.
func (s *CheckpointStore) tenantDir(tenant string) string {
	return filepath.Join(s.dir, sanitizeName(tenant))
}

// checkpointPath names the snapshot file for one interval.
func (s *CheckpointStore) checkpointPath(tenant string, interval int) string {
	return filepath.Join(s.tenantDir(tenant), fmt.Sprintf("ckpt-%010d%s", interval, checkpointExt))
}

// Write persists ck atomically and prunes snapshots beyond the retention
// count. It returns the final file path.
func (s *CheckpointStore) Write(ck *Checkpoint) (string, error) {
	if ck == nil || ck.Tenant == "" {
		return "", errors.New("fleet: checkpoint without a tenant")
	}
	buf, err := encodeCheckpoint(ck)
	if err != nil {
		return "", err
	}
	dir := s.tenantDir(ck.Tenant)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("fleet: checkpoint dir: %w", err)
	}
	tmp, err := os.CreateTemp(dir, "ckpt-*.tmp")
	if err != nil {
		return "", fmt.Errorf("fleet: checkpoint temp: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(buf); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("fleet: checkpoint write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return "", fmt.Errorf("fleet: checkpoint sync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("fleet: checkpoint close: %w", err)
	}
	final := s.checkpointPath(ck.Tenant, ck.Interval)
	if err := os.Rename(tmpName, final); err != nil {
		os.Remove(tmpName)
		return "", fmt.Errorf("fleet: checkpoint rename: %w", err)
	}
	s.prune(ck.Tenant)
	return final, nil
}

// prune deletes the oldest snapshots beyond the retention count. Best
// effort: pruning failures never fail a write.
func (s *CheckpointStore) prune(tenant string) {
	files := s.files(tenant)
	for i := 0; i < len(files)-s.keep; i++ {
		os.Remove(files[i])
	}
}

// files lists the tenant's snapshot files sorted oldest first. The
// zero-padded interval in the name makes lexical order interval order.
func (s *CheckpointStore) files(tenant string) []string {
	entries, err := os.ReadDir(s.tenantDir(tenant))
	if err != nil {
		return nil
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || !strings.HasPrefix(e.Name(), "ckpt-") || !strings.HasSuffix(e.Name(), checkpointExt) {
			continue
		}
		out = append(out, filepath.Join(s.tenantDir(tenant), e.Name()))
	}
	sort.Strings(out)
	return out
}

// Latest returns the newest checkpoint for the tenant that passes envelope
// validation and names the tenant, skipping corrupt or truncated files and
// other tenants' snapshots (newest first). It returns (nil, "", nil) when the
// tenant has no valid snapshot at all — a cold start, not an error.
func (s *CheckpointStore) Latest(tenant string) (*Checkpoint, string, error) {
	files := s.files(tenant)
	for i := len(files) - 1; i >= 0; i-- {
		ck, err := ReadCheckpointFile(files[i])
		if err != nil {
			if errors.Is(err, ErrCorruptCheckpoint) {
				continue // fall back to the previous snapshot
			}
			return nil, "", err
		}
		if ck.Tenant != tenant {
			continue // another tenant's state never restores this one
		}
		return ck, files[i], nil
	}
	return nil, "", nil
}

// sanitizeName maps an arbitrary tenant or registry key to a filesystem-safe
// file name, one to one. Letters, digits, '-', '.' and '@' stand for
// themselves; any other rune, '_' included, is written "_x" and its
// lowercase hex code. A leading '.' is escaped too, so no name maps to "." or
// "..", and so is a hex digit right after an escape, so an escape's code ends
// where the next rune begins. The empty name maps to "_", which no other
// name yields.
func sanitizeName(name string) string {
	if name == "" {
		return "_"
	}
	var b strings.Builder
	escaped := false
	for i, r := range name {
		keep := r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z' || r >= '0' && r <= '9' ||
			r == '-' || r == '@' || r == '.' && i > 0
		if keep && !(escaped && (r >= '0' && r <= '9' || r >= 'a' && r <= 'f')) {
			b.WriteRune(r)
			escaped = false
			continue
		}
		b.WriteString("_x" + strconv.FormatInt(int64(r), 16))
		escaped = true
	}
	return b.String()
}
