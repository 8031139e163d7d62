package catalog

import (
	"sort"
	"sync"
)

// Snapshot is an immutable, consistent view of the catalog at a version.
// Read operations run against snapshots without locking (paper §2.4:
// "exposing consistent snapshots to database read operations").
//
// Every lookup other than Get/ModVersion/Len is served from an index
// built on the first lookup. Lookup results are slices shared by every
// caller of the snapshot: read them, never sort them in place or write
// their elements. Their capacity equals their length, so append copies.
type Snapshot struct {
	version uint64
	objects map[OID]Object
	// modVersion records the commit version that last wrote each object,
	// which is what OCC validation compares against (§6.3).
	modVersion map[OID]uint64

	// The index is built from objects at most once, and only after the
	// snapshot is published: code that constructs a snapshot (commit,
	// Apply, checkpoint decode and log replay) writes objects directly
	// and must not call a lookup on the snapshot it is still writing.
	indexOnce sync.Once
	idx       *snapshotIndex
}

// projShard keys the containers of one projection within one shard.
type projShard struct {
	proj  OID
	shard int
}

// snapshotIndex is the derived lookup state of a Snapshot. Every slice is
// in OID order unless stated otherwise.
type snapshotIndex struct {
	all    []Object
	byKind [KindDeleteVector + 1][]Object

	tables      []*Table
	tableByName map[string]*Table // folded name; lowest OID wins
	projByName  map[string]*Projection
	projsOf     map[OID][]*Projection // per table: buddy offset, then OID
	shards      []*Shard              // by shard index
	segShards   int
	subs        []*Subscription
	subsOfNode  map[string][]*Subscription
	subsOfShard map[int][]*Subscription
	nodes       []*Node // by name
	nodeByName  map[string]*Node

	containersOf      map[OID][]*StorageContainer
	containersOfShard map[projShard][]*StorageContainer
	dvsOf             map[OID][]*DeleteVector
}

// emptySnapshot returns the version-0 snapshot.
func emptySnapshot() *Snapshot {
	return &Snapshot{objects: map[OID]Object{}, modVersion: map[OID]uint64{}}
}

// mutableCopy returns an unpublished copy of s at the given version with
// room for extra more objects. The copy has no index; its maker fills
// objects and modVersion and then publishes it.
func (s *Snapshot) mutableCopy(version uint64, extra int) *Snapshot {
	out := &Snapshot{
		version:    version,
		objects:    make(map[OID]Object, len(s.objects)+extra),
		modVersion: make(map[OID]uint64, len(s.modVersion)+extra),
	}
	for oid, o := range s.objects {
		out.objects[oid] = o
		out.modVersion[oid] = s.modVersion[oid]
	}
	return out
}

// Version returns the catalog version the snapshot reflects.
func (s *Snapshot) Version() uint64 { return s.version }

// Get returns the object with the given OID.
func (s *Snapshot) Get(oid OID) (Object, bool) {
	o, ok := s.objects[oid]
	return o, ok
}

// ModVersion returns the commit version that last modified oid (0 if the
// object does not exist).
func (s *Snapshot) ModVersion(oid OID) uint64 { return s.modVersion[oid] }

// Len returns the number of objects in the snapshot.
func (s *Snapshot) Len() int { return len(s.objects) }

// index returns the snapshot's lookup index, building it on first use.
// Versions no reader ever looks into never pay for one.
func (s *Snapshot) index() *snapshotIndex {
	s.indexOnce.Do(func() { s.idx = buildIndex(s.objects) })
	return s.idx
}

func buildIndex(objects map[OID]Object) *snapshotIndex {
	ix := &snapshotIndex{
		all:               make([]Object, 0, len(objects)),
		tableByName:       map[string]*Table{},
		projByName:        map[string]*Projection{},
		projsOf:           map[OID][]*Projection{},
		subsOfNode:        map[string][]*Subscription{},
		subsOfShard:       map[int][]*Subscription{},
		nodeByName:        map[string]*Node{},
		containersOf:      map[OID][]*StorageContainer{},
		containersOfShard: map[projShard][]*StorageContainer{},
		dvsOf:             map[OID][]*DeleteVector{},
	}
	for _, o := range objects {
		ix.all = append(ix.all, o)
	}
	sort.Slice(ix.all, func(i, j int) bool { return ix.all[i].GetOID() < ix.all[j].GetOID() })
	for _, o := range ix.all {
		if k := int(o.Kind()); k < len(ix.byKind) {
			ix.byKind[k] = append(ix.byKind[k], o)
		}
		switch o := o.(type) {
		case *Table:
			ix.tables = append(ix.tables, o)
			if name := foldName(o.Name); ix.tableByName[name] == nil {
				ix.tableByName[name] = o
			}
		case *Projection:
			if name := foldName(o.Name); ix.projByName[name] == nil {
				ix.projByName[name] = o
			}
			ix.projsOf[o.TableOID] = append(ix.projsOf[o.TableOID], o)
		case *Shard:
			ix.shards = append(ix.shards, o)
			if o.ShardKind == SegmentShard {
				ix.segShards++
			}
		case *Subscription:
			ix.subs = append(ix.subs, o)
			ix.subsOfNode[o.Node] = append(ix.subsOfNode[o.Node], o)
			ix.subsOfShard[o.ShardIndex] = append(ix.subsOfShard[o.ShardIndex], o)
		case *Node:
			ix.nodes = append(ix.nodes, o)
			if ix.nodeByName[o.Name] == nil {
				ix.nodeByName[o.Name] = o
			}
		case *StorageContainer:
			ix.containersOf[o.ProjOID] = append(ix.containersOf[o.ProjOID], o)
			key := projShard{o.ProjOID, o.ShardIndex}
			ix.containersOfShard[key] = append(ix.containersOfShard[key], o)
		case *DeleteVector:
			ix.dvsOf[o.ContainerOID] = append(ix.dvsOf[o.ContainerOID], o)
		}
	}
	// Stable sorts over OID-ordered input: ties keep OID order.
	for _, ps := range ix.projsOf {
		sort.SliceStable(ps, func(i, j int) bool { return ps[i].BuddyOffset < ps[j].BuddyOffset })
	}
	sort.SliceStable(ix.shards, func(i, j int) bool { return ix.shards[i].Index < ix.shards[j].Index })
	sort.SliceStable(ix.nodes, func(i, j int) bool { return ix.nodes[i].Name < ix.nodes[j].Name })

	ix.tables = capped(ix.tables)
	ix.shards = capped(ix.shards)
	ix.subs = capped(ix.subs)
	ix.nodes = capped(ix.nodes)
	capValues(ix.projsOf)
	capValues(ix.subsOfNode)
	capValues(ix.subsOfShard)
	capValues(ix.containersOf)
	capValues(ix.containersOfShard)
	capValues(ix.dvsOf)
	return ix
}

// capped returns s with its capacity cut to its length, so that a caller
// appending to a shared lookup result reallocates instead of writing into
// the index.
func capped[T any](s []T) []T { return s[:len(s):len(s)] }

func capValues[K comparable, T any](m map[K][]T) {
	for k, s := range m {
		m[k] = capped(s)
	}
}

// ForEach calls fn for every object of the given kind, in OID order.
// A zero kind visits all objects.
func (s *Snapshot) ForEach(k Kind, fn func(Object) bool) {
	ix := s.index()
	objs := ix.all
	if k != 0 {
		if int(k) >= len(ix.byKind) {
			return
		}
		objs = ix.byKind[k]
	}
	for _, o := range objs {
		if !fn(o) {
			return
		}
	}
}

// Tables returns all tables.
func (s *Snapshot) Tables() []*Table { return s.index().tables }

// TableByName finds a table by name.
func (s *Snapshot) TableByName(name string) (*Table, bool) {
	t, ok := s.index().tableByName[foldName(name)]
	return t, ok
}

// ProjectionByName finds a projection by name.
func (s *Snapshot) ProjectionByName(name string) (*Projection, bool) {
	p, ok := s.index().projByName[foldName(name)]
	return p, ok
}

// ProjectionsOf returns the projections of a table, base projections
// first (buddies sorted after their base by offset).
func (s *Snapshot) ProjectionsOf(table OID) []*Projection { return s.index().projsOf[table] }

// Shards returns all shard definitions sorted by index (replica shard
// last).
func (s *Snapshot) Shards() []*Shard { return s.index().shards }

// SegmentShardCount returns the number of segment shards.
func (s *Snapshot) SegmentShardCount() int { return s.index().segShards }

// Subscriptions returns all subscriptions, optionally filtered by node
// ("" matches all).
func (s *Snapshot) Subscriptions(node string) []*Subscription {
	if node == "" {
		return s.index().subs
	}
	return s.index().subsOfNode[node]
}

// SubscribersOf returns the subscriptions for one shard index filtered to
// the given states (empty states matches all).
func (s *Snapshot) SubscribersOf(shardIndex int, states ...SubState) []*Subscription {
	subs := s.index().subsOfShard[shardIndex]
	if len(states) == 0 {
		return subs
	}
	in := func(sub *Subscription) bool {
		for _, st := range states {
			if sub.State == st {
				return true
			}
		}
		return false
	}
	n := 0
	for _, sub := range subs {
		if in(sub) {
			n++
		}
	}
	if n == len(subs) {
		return subs
	}
	out := make([]*Subscription, 0, n)
	for _, sub := range subs {
		if in(sub) {
			out = append(out, sub)
		}
	}
	return out
}

// Nodes returns all node definitions sorted by name.
func (s *Snapshot) Nodes() []*Node { return s.index().nodes }

// NodeByName finds a node by name.
func (s *Snapshot) NodeByName(name string) (*Node, bool) {
	n, ok := s.index().nodeByName[name]
	return n, ok
}

// ContainersOf returns the storage containers of a projection, optionally
// restricted to one shard index (pass GlobalShard for no restriction).
func (s *Snapshot) ContainersOf(proj OID, shardIndex int) []*StorageContainer {
	if shardIndex == GlobalShard {
		return s.index().containersOf[proj]
	}
	return s.index().containersOfShard[projShard{proj, shardIndex}]
}

// DeleteVectorsOf returns the delete vectors covering a container.
func (s *Snapshot) DeleteVectorsOf(container OID) []*DeleteVector {
	return s.index().dvsOf[container]
}

// FilterShards returns a copy of the snapshot containing only global
// objects plus storage objects of the given shard indexes. This models a
// subscribing node's partial catalog (paper §3.1).
func (s *Snapshot) FilterShards(keep map[int]bool) *Snapshot {
	out := &Snapshot{
		version:    s.version,
		objects:    make(map[OID]Object, len(s.objects)),
		modVersion: make(map[OID]uint64, len(s.modVersion)),
	}
	for oid, o := range s.objects {
		sh := o.Shard()
		if sh == GlobalShard || keep[sh] {
			out.objects[oid] = o
			out.modVersion[oid] = s.modVersion[oid]
		}
	}
	return out
}

// foldName lower-cases the ASCII letters of a catalog name (names compare
// case-insensitively over ASCII only). It allocates only when the name
// has an upper-case letter.
func foldName(s string) string {
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'Z' {
			b := []byte(s)
			for j := i; j < len(b); j++ {
				if 'A' <= b[j] && b[j] <= 'Z' {
					b[j] += 'a' - 'A'
				}
			}
			return string(b)
		}
	}
	return s
}
