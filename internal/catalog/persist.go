package catalog

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"eon/internal/udfs"
)

// File naming inside a catalog directory. Transaction logs are "broken
// into multiple files but totally ordered with an incrementing version
// counter"; checkpoints are labeled with the version they reflect
// (paper §2.4).
const (
	txnPrefix  = "txn_"
	ckptPrefix = "ckpt_"
)

// TxnFileName returns the log file name for a commit version.
func TxnFileName(version uint64) string {
	return fmt.Sprintf("%s%016d.json", txnPrefix, version)
}

// CkptFileName returns the checkpoint file name for a version.
func CkptFileName(version uint64) string {
	return fmt.Sprintf("%s%016d.json", ckptPrefix, version)
}

// ParseCatalogFile extracts the kind ("txn" or "ckpt") and version from a
// catalog file name; ok=false for foreign files.
func ParseCatalogFile(name string) (kind string, version uint64, ok bool) {
	base := name
	if i := strings.LastIndexByte(base, '/'); i >= 0 {
		base = base[i+1:]
	}
	var prefix string
	switch {
	case strings.HasPrefix(base, txnPrefix):
		kind, prefix = "txn", txnPrefix
	case strings.HasPrefix(base, ckptPrefix):
		kind, prefix = "ckpt", ckptPrefix
	default:
		return "", 0, false
	}
	num := strings.TrimSuffix(strings.TrimPrefix(base, prefix), ".json")
	v, err := strconv.ParseUint(num, 10, 64)
	if err != nil {
		return "", 0, false
	}
	return kind, v, true
}

// checkpointFile is the serialized form of a full catalog snapshot.
type checkpointFile struct {
	Version uint64  `json:"version"`
	NextOID OID     `json:"nextOid"`
	Objects []LogOp `json:"objects"`
}

// EncodeCheckpoint serializes a snapshot into checkpoint file bytes.
func EncodeCheckpoint(s *Snapshot, nextOID OID) ([]byte, error) {
	ck := checkpointFile{Version: s.version, NextOID: nextOID}
	var oids []OID
	for oid := range s.objects {
		oids = append(oids, oid)
	}
	sort.Slice(oids, func(i, j int) bool { return oids[i] < oids[j] })
	for _, oid := range oids {
		o := s.objects[oid]
		raw, err := marshalObject(o)
		if err != nil {
			return nil, err
		}
		ck.Objects = append(ck.Objects, LogOp{Kind: o.Kind(), OID: oid, Data: raw})
	}
	return json.Marshal(ck)
}

// DecodeCheckpoint reconstructs a snapshot from checkpoint bytes. Every
// object's modVersion is set to the checkpoint version (precise per-object
// history is not needed across restarts).
func DecodeCheckpoint(data []byte) (*Snapshot, OID, error) {
	var ck checkpointFile
	if err := json.Unmarshal(data, &ck); err != nil {
		return nil, 0, fmt.Errorf("catalog: decode checkpoint: %w", err)
	}
	s := &Snapshot{
		version:    ck.Version,
		objects:    make(map[OID]Object, len(ck.Objects)),
		modVersion: make(map[OID]uint64, len(ck.Objects)),
	}
	for _, op := range ck.Objects {
		o, err := unmarshalObject(op.Kind, op.Data)
		if err != nil {
			return nil, 0, err
		}
		s.objects[op.OID] = o
		s.modVersion[op.OID] = ck.Version
	}
	next := ck.NextOID
	if m := MaxOID(s); m > next {
		next = m
	}
	return s, next, nil
}

// Persister durably appends transaction logs and writes checkpoints to a
// directory of a filesystem (the node's local catalog directory).
type Persister struct {
	fs  udfs.FileSystem
	dir string
	// CheckpointThreshold is the accumulated log byte count that triggers
	// a checkpoint (paper §2.4: "when the total transaction log size
	// exceeds a threshold").
	CheckpointThreshold int64

	mu            sync.Mutex
	bytesSinceCkp int64
}

// NewPersister returns a persister rooted at dir on fs.
func NewPersister(fs udfs.FileSystem, dir string, checkpointThreshold int64) *Persister {
	if checkpointThreshold <= 0 {
		checkpointThreshold = 256 << 10
	}
	return &Persister{fs: fs, dir: dir, CheckpointThreshold: checkpointThreshold}
}

// Dir returns the catalog directory path.
func (p *Persister) Dir() string { return p.dir }

// FS returns the underlying filesystem.
func (p *Persister) FS() udfs.FileSystem { return p.fs }

func (p *Persister) path(name string) string { return p.dir + "/" + name }

// Append durably writes one commit's log record.
func (p *Persister) Append(rec *LogRecord) error {
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	if err := p.fs.WriteFile(context.Background(), p.path(TxnFileName(rec.Version)), data); err != nil {
		return err
	}
	p.mu.Lock()
	p.bytesSinceCkp += int64(len(data))
	p.mu.Unlock()
	return nil
}

// MaybeCheckpoint writes a checkpoint if enough log bytes accumulated.
func (p *Persister) MaybeCheckpoint(s *Snapshot) {
	p.mu.Lock()
	due := p.bytesSinceCkp >= p.CheckpointThreshold
	p.mu.Unlock()
	if due {
		_ = p.Checkpoint(s, MaxOID(s)) // best effort; next commit retries
	}
}

// Checkpoint writes a full checkpoint of s and prunes old catalog files,
// retaining the two most recent checkpoints and any logs after the older
// retained checkpoint.
func (p *Persister) Checkpoint(s *Snapshot, nextOID OID) error {
	data, err := EncodeCheckpoint(s, nextOID)
	if err != nil {
		return err
	}
	name := p.path(CkptFileName(s.version))
	if ok, _ := udfs.Exists(context.Background(), p.fs, name); !ok {
		if err := p.fs.WriteFile(context.Background(), name, data); err != nil {
			return err
		}
	}
	p.mu.Lock()
	p.bytesSinceCkp = 0
	p.mu.Unlock()
	return p.prune()
}

// prune removes checkpoints older than the two newest and logs at or
// before the older retained checkpoint.
func (p *Persister) prune() error {
	ctx := context.Background()
	infos, err := p.fs.List(ctx, p.dir+"/")
	if err != nil {
		return err
	}
	var ckpts []uint64
	for _, in := range infos {
		if kind, v, ok := ParseCatalogFile(in.Path); ok && kind == "ckpt" {
			ckpts = append(ckpts, v)
		}
	}
	if len(ckpts) <= 2 {
		return nil
	}
	sort.Slice(ckpts, func(i, j int) bool { return ckpts[i] < ckpts[j] })
	keepFrom := ckpts[len(ckpts)-2]
	for _, in := range infos {
		kind, v, ok := ParseCatalogFile(in.Path)
		if !ok {
			continue
		}
		if kind == "ckpt" && v < keepFrom {
			_ = p.fs.Remove(ctx, in.Path)
		}
		if kind == "txn" && v <= keepFrom {
			_ = p.fs.Remove(ctx, in.Path)
		}
	}
	return nil
}

// ListFiles returns the catalog's checkpoint and log files sorted by
// (version, kind) with checkpoints first at equal versions.
func (p *Persister) ListFiles(ctx context.Context) ([]udfs.FileInfo, error) {
	infos, err := p.fs.List(ctx, p.dir+"/")
	if err != nil {
		return nil, err
	}
	var out []udfs.FileInfo
	for _, in := range infos {
		if _, _, ok := ParseCatalogFile(in.Path); ok {
			out = append(out, in)
		}
	}
	return out, nil
}

// Replay rebuilds the newest catalog version at or below limit that the
// named files (a directory or prefix listing; foreign names are ignored)
// can reach: the newest checkpoint at or below limit that decodes, then
// the contiguous logs after it (paper §2.4). read is handed, in one call,
// every file a candidate checkpoint needs — the checkpoint first, then
// its log tail in version order — so a remote reader can have them all
// in flight together; it returns their contents in the same order, nil
// for a file it could not read, and an error only to abandon the replay.
// A checkpoint that is unreadable or does not decode falls back to the
// next older one and a longer tail, and finally to the empty catalog and
// the logs from version 1; replay stops at the first missing, unreadable
// or undecodable log. The caller checks the version it got.
func Replay(names []string, limit uint64, read func(names []string) ([][]byte, error)) (*Snapshot, OID, error) {
	ckpts := map[uint64]string{}
	txns := map[uint64]string{}
	var newestFirst []uint64
	for _, name := range names {
		kind, v, ok := ParseCatalogFile(name)
		if !ok || v > limit {
			continue
		}
		if kind == "ckpt" {
			ckpts[v] = name
			newestFirst = append(newestFirst, v)
		} else {
			txns[v] = name
		}
	}
	sort.Slice(newestFirst, func(i, j int) bool { return newestFirst[i] > newestFirst[j] })

	// from replays one candidate: the checkpoint file ckpt ("" for the
	// empty catalog) at version cv plus its log tail; ok is false when the
	// checkpoint is unusable.
	from := func(ckpt string, cv uint64) (snap *Snapshot, next OID, ok bool, err error) {
		var need []string
		if ckpt != "" {
			need = append(need, ckpt)
		}
		for v := cv + 1; txns[v] != ""; v++ {
			need = append(need, txns[v])
		}
		data, err := read(need)
		if err != nil {
			return nil, 0, false, err
		}
		snap, next = emptySnapshot(), OID(1)
		if ckpt != "" {
			if data[0] == nil {
				return nil, 0, false, nil
			}
			if snap, next, err = DecodeCheckpoint(data[0]); err != nil {
				return nil, 0, false, nil
			}
			data = data[1:]
		}
		for _, d := range data {
			var rec LogRecord
			if d == nil || json.Unmarshal(d, &rec) != nil {
				break
			}
			if err := applyToSnapshot(snap, &rec); err != nil {
				return nil, 0, false, err
			}
			if rec.NextOID > next {
				next = rec.NextOID
			}
		}
		if m := MaxOID(snap); m > next {
			next = m
		}
		return snap, next, true, nil
	}
	for _, cv := range newestFirst {
		if snap, next, ok, err := from(ckpts[cv], cv); ok || err != nil {
			return snap, next, err
		}
	}
	snap, next, _, err := from("", 0)
	return snap, next, err
}

// replayDir is Replay over a local catalog directory.
func replayDir(ctx context.Context, fs udfs.FileSystem, dir string, limit uint64) (*Snapshot, OID, []udfs.FileInfo, error) {
	infos, err := fs.List(ctx, dir+"/")
	if err != nil {
		return nil, 0, nil, err
	}
	paths := make([]string, len(infos))
	for i, in := range infos {
		paths[i] = in.Path
	}
	snap, next, err := Replay(paths, limit, func(paths []string) ([][]byte, error) {
		out := make([][]byte, len(paths))
		for i, p := range paths {
			out[i], _ = fs.ReadFile(ctx, p) // unreadable: nil, Replay falls back or stops
		}
		return out, nil
	})
	return snap, next, infos, err
}

// Load reconstructs the catalog state from dir: the most recent valid
// checkpoint plus all subsequent transaction logs (paper §2.4). A missing
// directory yields an empty version-0 snapshot.
func Load(ctx context.Context, fs udfs.FileSystem, dir string) (*Snapshot, OID, error) {
	snap, next, _, err := replayDir(ctx, fs, dir, ^uint64(0))
	return snap, next, err
}

// applyToSnapshot mutates snap in place with the record's operations.
// Only used during load/replay where the snapshot is private.
func applyToSnapshot(snap *Snapshot, rec *LogRecord) error {
	for _, op := range rec.Ops {
		if op.Delete {
			delete(snap.objects, op.OID)
			snap.modVersion[op.OID] = rec.Version
			continue
		}
		o, err := unmarshalObject(op.Kind, op.Data)
		if err != nil {
			return err
		}
		snap.objects[op.OID] = o
		snap.modVersion[op.OID] = rec.Version
	}
	snap.version = rec.Version
	return nil
}

// TruncateTo discards all commits after version in dir: replays the
// catalog to exactly that version, deletes later log and checkpoint
// files, and writes a fresh checkpoint at the truncation version (paper
// §3.5). It returns the truncated snapshot.
func TruncateTo(ctx context.Context, fs udfs.FileSystem, dir string, version uint64) (*Snapshot, OID, error) {
	snap, next, infos, err := replayDir(ctx, fs, dir, version)
	if err != nil {
		return nil, 0, err
	}
	if snap.version != version {
		return nil, 0, fmt.Errorf("catalog: cannot truncate to v%d, best reachable is v%d", version, snap.version)
	}
	for _, in := range infos {
		if _, v, ok := ParseCatalogFile(in.Path); ok && v > version {
			_ = fs.Remove(ctx, in.Path) // a leftover is beyond every later replay's limit
		}
	}
	data, err := EncodeCheckpoint(snap, next)
	if err != nil {
		return nil, 0, err
	}
	name := dir + "/" + CkptFileName(version)
	if ok, _ := udfs.Exists(ctx, fs, name); !ok {
		if err := fs.WriteFile(ctx, name, data); err != nil {
			return nil, 0, err
		}
	}
	return snap, next, nil
}
