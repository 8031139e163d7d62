package catalog

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// ErrConflict is returned by Commit when optimistic validation fails: an
// object in the transaction's read or write set was modified by a
// concurrent commit (paper §6.3).
var ErrConflict = errors.New("catalog: optimistic concurrency conflict")

// ErrStale is returned when applying a replicated log record whose version
// does not directly follow the catalog's current version.
var ErrStale = errors.New("catalog: log record does not follow current version")

// LogOp is one object mutation within a transaction log record.
type LogOp struct {
	Delete bool            `json:"delete,omitempty"`
	Kind   Kind            `json:"kind"`
	OID    OID             `json:"oid"`
	Data   json.RawMessage `json:"data,omitempty"`
}

// LogRecord is the redo-log entry for one committed transaction. Records
// contain only metadata; data files are written before commit (paper
// §2.4).
type LogRecord struct {
	Version uint64  `json:"version"`
	NextOID OID     `json:"nextOid"`
	Ops     []LogOp `json:"ops"`
	// Shards lists the shard indexes whose storage objects the
	// transaction touched; GlobalShard appears if global objects changed.
	Shards []int `json:"shards"`

	// decoded memoizes the deserialized ops so fanning a record out to
	// many node catalogs decodes once. Objects in snapshots are treated
	// as immutable (copy-on-write), so sharing pointers is safe.
	decodeOnce sync.Once
	decoded    []Object
	decodeErr  error
}

// DecodedOps returns the record's non-delete objects aligned with Ops
// (nil entries for deletes), decoding at most once.
func (r *LogRecord) DecodedOps() ([]Object, error) {
	r.decodeOnce.Do(func() {
		r.decoded = make([]Object, len(r.Ops))
		for i, op := range r.Ops {
			if op.Delete {
				continue
			}
			o, err := unmarshalObject(op.Kind, op.Data)
			if err != nil {
				r.decodeErr = err
				return
			}
			r.decoded[i] = o
		}
	})
	return r.decoded, r.decodeErr
}

// Catalog is the mutable, multi-version metadata store of one node.
type Catalog struct {
	mu  sync.Mutex // the global catalog lock, held only during commit
	cur atomic.Pointer[Snapshot]
	// oids holds the last OID handed out. The catalogs of one database
	// share it (NewSharing), so no two initiators hand out the same OID:
	// a transaction in flight on one node cannot name an object that
	// another node's commit puts.
	oids *atomic.Uint64

	// persister, when set, durably appends each commit's log record.
	persister *Persister

	// onCommit hooks observe committed records (used to distribute
	// metadata deltas to shard subscribers, §3.2).
	onCommit []func(*LogRecord)
}

// New returns an empty catalog at version 0 with an OID counter of its
// own.
func New() *Catalog { return NewSharing(new(atomic.Uint64)) }

// NewSharing returns an empty catalog at version 0 that draws OIDs from
// oids, the last OID handed out by the catalogs sharing it.
func NewSharing(oids *atomic.Uint64) *Catalog {
	c := &Catalog{oids: oids}
	c.cur.Store(emptySnapshot())
	return c
}

// SetPersister attaches durable logging; pass nil to detach.
func (c *Catalog) SetPersister(p *Persister) { c.persister = p }

// Persister returns the attached persister, if any.
func (c *Catalog) Persister() *Persister { return c.persister }

// OnCommit registers a hook invoked (under the commit lock) with every
// committed log record.
func (c *Catalog) OnCommit(fn func(*LogRecord)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onCommit = append(c.onCommit, fn)
}

// Snapshot returns the current consistent view.
func (c *Catalog) Snapshot() *Snapshot { return c.cur.Load() }

// Version returns the current catalog version.
func (c *Catalog) Version() uint64 { return c.cur.Load().version }

// NewOID allocates a fresh object identifier.
func (c *Catalog) NewOID() OID { return OID(c.oids.Add(1)) }

// raiseOIDs makes the next OID handed out at least next.
func (c *Catalog) raiseOIDs(next OID) {
	for {
		last := c.oids.Load()
		if uint64(next) <= last+1 || c.oids.CompareAndSwap(last, uint64(next)-1) {
			return
		}
	}
}

// Txn is an in-flight catalog transaction. Modifications happen "offline
// and up front without requiring a global catalog lock"; a write set is
// maintained and validated at commit (paper §6.3).
type Txn struct {
	cat     *Catalog
	base    *Snapshot
	writes  map[OID]Object
	deletes map[OID]Object
	reads   map[OID]uint64
	order   []OID // write/delete order for deterministic logs
}

// Begin starts a transaction against the current snapshot.
func (c *Catalog) Begin() *Txn {
	return &Txn{
		cat:     c,
		base:    c.Snapshot(),
		writes:  map[OID]Object{},
		deletes: map[OID]Object{},
		reads:   map[OID]uint64{},
	}
}

// Base returns the snapshot the transaction started from.
func (t *Txn) Base() *Snapshot { return t.base }

// Get reads an object through the transaction (uncommitted writes are
// visible) and records the read for OCC validation.
func (t *Txn) Get(oid OID) (Object, bool) {
	if _, del := t.deletes[oid]; del {
		return nil, false
	}
	if o, ok := t.writes[oid]; ok {
		return o, true
	}
	o, ok := t.base.Get(oid)
	if ok {
		t.reads[oid] = t.base.ModVersion(oid)
	}
	return o, ok
}

// TrackRead adds oid to the validation read set without fetching it.
func (t *Txn) TrackRead(oid OID) { t.reads[oid] = t.base.ModVersion(oid) }

// Put stages an object write.
func (t *Txn) Put(o Object) {
	oid := o.GetOID()
	if _, seen := t.writes[oid]; !seen {
		if _, del := t.deletes[oid]; !del {
			t.order = append(t.order, oid)
		}
	}
	delete(t.deletes, oid)
	t.writes[oid] = o
}

// Delete stages the removal of o. The commit logs it with o's kind and
// shard even when the transaction's base does not hold o: an Eon node's
// catalog holds only its own shards, yet a statement it initiates can
// drop containers of every shard.
func (t *Txn) Delete(o Object) {
	oid := o.GetOID()
	if _, seen := t.deletes[oid]; !seen {
		if _, w := t.writes[oid]; !w {
			t.order = append(t.order, oid)
		}
	}
	delete(t.writes, oid)
	t.deletes[oid] = o
}

// Pending reports whether the transaction has staged changes.
func (t *Txn) Pending() bool { return len(t.writes)+len(t.deletes) > 0 }

// StagedOIDs returns the OIDs the transaction has written or deleted, in
// staging order.
func (t *Txn) StagedOIDs() []OID { return append([]OID(nil), t.order...) }

// Commit validates the transaction under the global catalog lock and, on
// success, installs a new snapshot, appends the log record and returns
// it. On conflict it returns ErrConflict and the catalog is unchanged.
func (c *Catalog) Commit(t *Txn) (*LogRecord, error) {
	return c.commit(t, nil)
}

// CommitValidated is Commit with an extra validation hook executed under
// the commit lock against the latest snapshot; returning an error aborts
// the commit. Eon uses this to verify that all subscribers hold the
// transaction's shard metadata ("no additional subscription has snuck
// in", §3.2).
func (c *Catalog) CommitValidated(t *Txn, validate func(latest *Snapshot) error) (*LogRecord, error) {
	return c.commit(t, validate)
}

func (c *Catalog) commit(t *Txn, validate func(*Snapshot) error) (*LogRecord, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.cur.Load()
	// OCC validation: every object read or written must be unmodified
	// since the transaction began.
	check := func(oid OID, seen uint64) error {
		if cur.modVersion[oid] != seen {
			return fmt.Errorf("%w: object %d modified (saw v%d, now v%d)",
				ErrConflict, oid, seen, cur.modVersion[oid])
		}
		return nil
	}
	for oid, seen := range t.reads {
		if err := check(oid, seen); err != nil {
			return nil, err
		}
	}
	for oid := range t.writes {
		if err := check(oid, t.base.modVersion[oid]); err != nil {
			return nil, err
		}
	}
	for oid := range t.deletes {
		if err := check(oid, t.base.modVersion[oid]); err != nil {
			return nil, err
		}
	}
	if validate != nil {
		if err := validate(cur); err != nil {
			return nil, err
		}
	}

	version := cur.version + 1
	next := cur.mutableCopy(version, len(t.writes))

	rec := &LogRecord{Version: version}
	shardSet := map[int]struct{}{}
	for _, oid := range t.order {
		if o, ok := t.writes[oid]; ok {
			raw, err := marshalObject(o)
			if err != nil {
				return nil, fmt.Errorf("catalog: marshal %d: %w", oid, err)
			}
			rec.Ops = append(rec.Ops, LogOp{Kind: o.Kind(), OID: oid, Data: raw})
			shardSet[o.Shard()] = struct{}{}
			next.objects[oid] = o
			next.modVersion[oid] = version
			continue
		}
		if o, ok := t.deletes[oid]; ok {
			rec.Ops = append(rec.Ops, LogOp{Delete: true, Kind: o.Kind(), OID: oid})
			shardSet[o.Shard()] = struct{}{}
			delete(next.objects, oid)
			next.modVersion[oid] = version
		}
	}
	rec.Shards = sortedShardSet(shardSet)
	rec.NextOID = OID(c.oids.Load() + 1)

	if c.persister != nil {
		if err := c.persister.Append(rec); err != nil {
			return nil, fmt.Errorf("catalog: persist commit: %w", err)
		}
	}
	c.cur.Store(next)
	for _, fn := range c.onCommit {
		fn(rec)
	}
	if c.persister != nil {
		c.persister.MaybeCheckpoint(next)
	}
	return rec, nil
}

func sortedShardSet(set map[int]struct{}) []int {
	out := make([]int, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// KeepFunc decides whether a replicated storage object belongs in this
// node's catalog. Global objects are always kept. Eon nodes keep objects
// of subscribed shards; Enterprise nodes keep objects they own.
type KeepFunc func(Object) bool

// KeepShards builds a KeepFunc retaining storage objects of the given
// shard indexes.
func KeepShards(shards map[int]bool) KeepFunc {
	return func(o Object) bool { return shards[o.Shard()] }
}

// Apply installs a replicated log record produced by another node's
// commit. keep filters storage objects (nil keeps everything). The
// record version must directly follow the current version.
func (c *Catalog) Apply(rec *LogRecord, keep KeepFunc) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.cur.Load()
	if rec.Version != cur.version+1 {
		return fmt.Errorf("%w: have v%d, record v%d", ErrStale, cur.version, rec.Version)
	}
	next := cur.mutableCopy(rec.Version, len(rec.Ops))
	decoded, err := rec.DecodedOps()
	if err != nil {
		return err
	}
	for i, op := range rec.Ops {
		if op.Delete {
			delete(next.objects, op.OID)
			next.modVersion[op.OID] = rec.Version
			continue
		}
		o := decoded[i]
		if keep != nil {
			if sh := o.Shard(); sh != GlobalShard && !keep(o) {
				// Not subscribed: skip the storage object but still
				// advance the version.
				next.modVersion[op.OID] = rec.Version
				continue
			}
		}
		next.objects[op.OID] = o
		next.modVersion[op.OID] = rec.Version
	}
	c.raiseOIDs(rec.NextOID)
	if c.persister != nil {
		if err := c.persister.Append(rec); err != nil {
			return fmt.Errorf("catalog: persist applied record: %w", err)
		}
	}
	c.cur.Store(next)
	for _, fn := range c.onCommit {
		fn(rec)
	}
	if c.persister != nil {
		c.persister.MaybeCheckpoint(next)
	}
	return nil
}

// ReplaceShard makes the catalog's storage objects of shard exactly
// src's, with src's mod-versions, and returns the shard's objects it held
// before: the metadata transfer of subscription (§3.3) and, with a nil
// src, the metadata drop of unsubscription. No transaction runs, so the
// version does not advance. src must be at the catalog's own version
// (ErrStale otherwise): objects taken at another version could bring
// back what a later commit deleted, or miss what it added.
func (c *Catalog) ReplaceShard(shard int, src *Snapshot) ([]Object, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	cur := c.cur.Load()
	if src != nil && src.version != cur.version {
		return nil, fmt.Errorf("%w: have v%d, source v%d", ErrStale, cur.version, src.version)
	}
	next := &Snapshot{
		version:    cur.version,
		objects:    make(map[OID]Object, len(cur.objects)),
		modVersion: make(map[OID]uint64, len(cur.modVersion)),
	}
	var removed []Object
	for oid, o := range cur.objects {
		if o.Shard() == shard {
			removed = append(removed, o)
			continue
		}
		next.objects[oid] = o
		next.modVersion[oid] = cur.modVersion[oid]
	}
	if src != nil {
		for oid, o := range src.objects {
			if o.Shard() == shard {
				next.objects[oid] = o
				next.modVersion[oid] = src.modVersion[oid]
			}
		}
	}
	c.cur.Store(next)
	return removed, nil
}

// Install replaces the catalog contents wholesale (used by revive).
func (c *Catalog) Install(snap *Snapshot, nextOID OID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.raiseOIDs(nextOID)
	c.cur.Store(snap)
}

// MaxOID returns the highest OID present in the snapshot plus one, a
// lower bound for safe OID allocation after installing a snapshot.
func MaxOID(s *Snapshot) OID {
	var max OID
	for oid := range s.objects {
		if oid > max {
			max = oid
		}
	}
	return max + 1
}
