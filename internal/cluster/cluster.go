// Package cluster implements the Eon-mode durability and revive machinery
// of paper §3.5: node instance identifiers (the 120-bit random component
// of storage IDs), cluster incarnation UUIDs, the cluster_info_<seq>.json
// commit-point objects with their lease, per-node catalog sync intervals, and
// the consensus truncation-version computation of Figure 5.
package cluster

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"eon/internal/objstore"
)

// InstanceID is the 120-bit strongly random identifier generated when a
// node process starts (paper §5.1, Figure 7). It prefixes every storage
// ID the process creates, so clusters cloned from the same files still
// generate globally unique names.
type InstanceID string

// NewInstanceID draws a fresh 120-bit random identifier.
func NewInstanceID() InstanceID {
	var b [15]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cluster: cannot read randomness: %v", err))
	}
	return InstanceID(hex.EncodeToString(b[:]))
}

// IncarnationID is the 128-bit UUID that changes each time the cluster is
// revived, qualifying metadata uploads so each revived cluster writes to
// a distinct location (§3.5).
type IncarnationID string

// NewIncarnationID draws a fresh incarnation UUID (RFC 4122 v4 layout).
func NewIncarnationID() IncarnationID {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(fmt.Sprintf("cluster: cannot read randomness: %v", err))
	}
	b[6] = (b[6] & 0x0f) | 0x40
	b[8] = (b[8] & 0x3f) | 0x80
	u := hex.EncodeToString(b[:])
	return IncarnationID(u[0:8] + "-" + u[8:12] + "-" + u[12:16] + "-" + u[16:20] + "-" + u[20:32])
}

// The revive commit point is a sequence of immutable objects,
// cluster_info_<seq>.json: each write PUTs the next sequence number and
// only then deletes the one before, so a crash between the two leaves
// two commit points and never none, and the highest that parses is the
// current one. InfoFileName is the key older clusters rewrote in place
// (delete, then put); it reads as sequence 0.
const (
	InfoFileName = "cluster_info.json"
	infoPrefix   = "cluster_info"
)

// InfoKey returns the commit-point key for a write sequence number.
func InfoKey(seq uint64) string { return fmt.Sprintf("%s_%016d.json", infoPrefix, seq) }

// InfoSeq returns the write sequence number of a commit-point key.
func InfoSeq(key string) (seq uint64, ok bool) {
	if key == InfoFileName {
		return 0, true
	}
	num, ok := strings.CutPrefix(key, infoPrefix+"_")
	if !ok {
		return 0, false
	}
	seq, err := strconv.ParseUint(strings.TrimSuffix(num, ".json"), 10, 64)
	return seq, err == nil
}

// ReadInfo finds the commit point on shared storage with one LIST and,
// unless the newest object is damaged, one GET. It returns the
// highest-sequence commit point that parses and every commit-point key
// listed, in ascending sequence order: the next write's sequence number
// is one past the last of them, and all of them are superseded by it.
func ReadInfo(ctx context.Context, st objstore.Store) (*Info, []string, error) {
	listed, err := st.List(ctx, infoPrefix)
	if err != nil {
		return nil, nil, err
	}
	seqs := map[string]uint64{}
	var keys []string
	for _, o := range listed {
		if seq, ok := InfoSeq(o.Key); ok {
			seqs[o.Key] = seq
			keys = append(keys, o.Key)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return seqs[keys[i]] < seqs[keys[j]] })
	err = fmt.Errorf("cluster: no %s* on shared storage", infoPrefix)
	for i := len(keys) - 1; i >= 0; i-- {
		data, gerr := st.Get(ctx, keys[i])
		if gerr != nil {
			return nil, nil, gerr
		}
		info, perr := ParseInfo(data)
		if perr == nil {
			return info, keys, nil
		}
		err = perr
	}
	return nil, nil, err
}

// Info is the contents of cluster_info.json: "in addition to the
// truncation version, the file also contains a timestamp, node and
// database information, and a lease time" (§3.5). Writing it is the
// commit point for revive.
type Info struct {
	Database          string        `json:"database"`
	Incarnation       IncarnationID `json:"incarnation"`
	TruncationVersion uint64        `json:"truncationVersion"`
	Nodes             []string      `json:"nodes"`
	Timestamp         time.Time     `json:"timestamp"`
	LeaseExpiry       time.Time     `json:"leaseExpiry"`
}

// Marshal serializes the info file.
func (i *Info) Marshal() ([]byte, error) { return json.MarshalIndent(i, "", "  ") }

// ParseInfo deserializes cluster_info.json bytes.
func ParseInfo(data []byte) (*Info, error) {
	var i Info
	if err := json.Unmarshal(data, &i); err != nil {
		return nil, fmt.Errorf("cluster: parse %s: %w", InfoFileName, err)
	}
	return &i, nil
}

// LeaseValid reports whether the lease is still held at now; revive must
// abort while another cluster plausibly runs on the same shared storage.
func (i *Info) LeaseValid(now time.Time) bool {
	return now.Before(i.LeaseExpiry)
}

// SyncInterval is the range of catalog versions a node could revive to
// from its uploads: uploaded checkpoints raise the lower bound, uploaded
// transaction logs raise the upper bound (§3.5).
type SyncInterval struct {
	Lower uint64 // oldest version reachable (latest uploaded checkpoint)
	Upper uint64 // newest version reachable (last uploaded txn log)
}

// Contains reports whether the node can revive to version v.
func (s SyncInterval) Contains(v uint64) bool { return v >= s.Lower && v <= s.Upper }

// SyncTracker aggregates per-node sync intervals on the leader.
type SyncTracker struct {
	mu        sync.Mutex
	intervals map[string]SyncInterval
}

// NewSyncTracker returns an empty tracker.
func NewSyncTracker() *SyncTracker {
	return &SyncTracker{intervals: map[string]SyncInterval{}}
}

// Update records a node's current sync interval.
func (t *SyncTracker) Update(node string, iv SyncInterval) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.intervals[node] = iv
}

// Get returns a node's last reported interval.
func (t *SyncTracker) Get(node string) (SyncInterval, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	iv, ok := t.intervals[node]
	return iv, ok
}

// Snapshot copies the tracked intervals.
func (t *SyncTracker) Snapshot() map[string]SyncInterval {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]SyncInterval, len(t.intervals))
	for k, v := range t.intervals {
		out[k] = v
	}
	return out
}

// ComputeTruncationVersion implements Figure 5: for each shard, the best
// version any subscriber has durably uploaded (the max of subscriber
// upper bounds); the consensus truncation version is the minimum of
// those across shards — the highest version at which every shard's
// metadata is fully present on shared storage. ok is false when some
// shard has no subscriber with an upload.
func ComputeTruncationVersion(shardSubscribers map[int][]string, intervals map[string]SyncInterval) (uint64, bool) {
	if len(shardSubscribers) == 0 {
		return 0, false
	}
	consensus := ^uint64(0)
	for _, subs := range shardSubscribers {
		best, found := uint64(0), false
		for _, node := range subs {
			if iv, ok := intervals[node]; ok && (!found || iv.Upper > best) {
				best, found = iv.Upper, true
			}
		}
		if !found {
			return 0, false // a shard with no subscriber upload blocks consensus
		}
		if best < consensus {
			consensus = best
		}
	}
	return consensus, true
}
