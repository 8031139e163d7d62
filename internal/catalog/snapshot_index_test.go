package catalog

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"eon/internal/types"
	"eon/internal/udfs"
)

// The brute* functions answer every Snapshot lookup by scanning the
// object map — what the lookups did before the snapshot carried an index.

func bruteKind(s *Snapshot, k Kind) []Object {
	var out []Object
	for _, o := range s.objects {
		if k == 0 || o.Kind() == k {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].GetOID() < out[j].GetOID() })
	return out
}

func bruteOf[T Object](s *Snapshot, k Kind, keep func(T) bool, less func(a, b T) bool) []T {
	var out []T
	for _, o := range bruteKind(s, k) {
		if v := o.(T); keep == nil || keep(v) {
			out = append(out, v)
		}
	}
	if less != nil {
		sort.SliceStable(out, func(i, j int) bool { return less(out[i], out[j]) })
	}
	return out
}

// sameObjs compares two lookup results by identity; nil and empty agree.
func sameObjs[T comparable](a, b []T) bool {
	return len(a) == len(b) && (len(a) == 0 || reflect.DeepEqual(a, b))
}

// checkSnapshot compares every lookup of s against the map scan and
// returns the first disagreement. It only reads, so any number of
// goroutines may run it on the same snapshot.
func checkSnapshot(s *Snapshot) error {
	for k := Kind(0); k <= KindDeleteVector+1; k++ {
		var got []Object
		s.ForEach(k, func(o Object) bool { got = append(got, o); return true })
		want := bruteKind(s, k)
		if k > KindDeleteVector {
			want = nil
		}
		if !sameObjs(got, want) {
			return fmt.Errorf("ForEach(%v): %d objects, want %d", k, len(got), len(want))
		}
	}
	n := 0
	s.ForEach(0, func(Object) bool { n++; return n < 2 })
	if want := min(2, s.Len()); n != want {
		return fmt.Errorf("ForEach visited %d objects after fn returned false, want %d", n, want)
	}

	tables := bruteOf[*Table](s, KindTable, nil, nil)
	if got := s.Tables(); !sameObjs(got, tables) {
		return fmt.Errorf("Tables: %v, want %v", got, tables)
	}
	projs := bruteOf[*Projection](s, KindProjection, nil, nil)
	byName := func(name string) (*Table, *Projection) {
		var t *Table
		var p *Projection
		for _, x := range tables {
			if t == nil && equalFoldASCII(x.Name, name) {
				t = x
			}
		}
		for _, x := range projs {
			if p == nil && equalFoldASCII(x.Name, name) {
				p = x
			}
		}
		return t, p
	}
	names := []string{"missing", ""}
	for _, t := range tables {
		names = append(names, t.Name, upper(t.Name))
	}
	for _, p := range projs {
		names = append(names, p.Name, upper(p.Name))
	}
	for _, name := range names {
		wantT, wantP := byName(name)
		if got, ok := s.TableByName(name); got != wantT || ok != (wantT != nil) {
			return fmt.Errorf("TableByName(%q) = %v, %v; want %v", name, got, ok, wantT)
		}
		if got, ok := s.ProjectionByName(name); got != wantP || ok != (wantP != nil) {
			return fmt.Errorf("ProjectionByName(%q) = %v, %v; want %v", name, got, ok, wantP)
		}
	}
	for _, t := range append(tables, &Table{OID: 1 << 40}) {
		want := bruteOf(s, KindProjection,
			func(p *Projection) bool { return p.TableOID == t.OID },
			func(a, b *Projection) bool { return a.BuddyOffset < b.BuddyOffset })
		if got := s.ProjectionsOf(t.OID); !sameObjs(got, want) {
			return fmt.Errorf("ProjectionsOf(%d): %v, want %v", t.OID, got, want)
		}
	}

	shards := bruteOf(s, KindShard, nil, func(a, b *Shard) bool { return a.Index < b.Index })
	if got := s.Shards(); !sameObjs(got, shards) {
		return fmt.Errorf("Shards: %v, want %v", got, shards)
	}
	segs := len(bruteOf(s, KindShard, func(sh *Shard) bool { return sh.ShardKind == SegmentShard }, nil))
	if got := s.SegmentShardCount(); got != segs {
		return fmt.Errorf("SegmentShardCount = %d, want %d", got, segs)
	}

	nodes := bruteOf(s, KindNode, nil, func(a, b *Node) bool { return a.Name < b.Name })
	if got := s.Nodes(); !sameObjs(got, nodes) {
		return fmt.Errorf("Nodes: %v, want %v", got, nodes)
	}
	for _, name := range []string{"", "n0", "n1", "n2", "n3", "nowhere"} {
		var want *Node
		for _, x := range nodes {
			if want == nil && x.Name == name {
				want = x
			}
		}
		if got, ok := s.NodeByName(name); got != want || ok != (want != nil) {
			return fmt.Errorf("NodeByName(%q) = %v, %v; want %v", name, got, ok, want)
		}
		wantSubs := bruteOf(s, KindSubscription, func(sub *Subscription) bool { return name == "" || sub.Node == name }, nil)
		if got := s.Subscriptions(name); !sameObjs(got, wantSubs) {
			return fmt.Errorf("Subscriptions(%q): %v, want %v", name, got, wantSubs)
		}
	}
	stateSets := [][]SubState{nil, {SubActive}, {SubActive, SubRemoving}, {SubPending, SubPassive}, {SubRemoving}}
	for shard := ReplicaShard; shard <= 4; shard++ {
		for _, states := range stateSets {
			want := bruteOf(s, KindSubscription, func(sub *Subscription) bool {
				if sub.ShardIndex != shard {
					return false
				}
				for _, st := range states {
					if sub.State == st {
						return true
					}
				}
				return len(states) == 0
			}, nil)
			if got := s.SubscribersOf(shard, states...); !sameObjs(got, want) {
				return fmt.Errorf("SubscribersOf(%d, %v): %v, want %v", shard, states, got, want)
			}
		}
	}

	for _, p := range append(projs, &Projection{OID: 1 << 40}) {
		for shard := ReplicaShard; shard <= 4; shard++ {
			want := bruteOf(s, KindStorageContainer, func(sc *StorageContainer) bool {
				return sc.ProjOID == p.OID && (shard == GlobalShard || sc.ShardIndex == shard)
			}, nil)
			if got := s.ContainersOf(p.OID, shard); !sameObjs(got, want) {
				return fmt.Errorf("ContainersOf(%d, %d): %v, want %v", p.OID, shard, got, want)
			}
		}
	}
	for _, sc := range append(bruteOf[*StorageContainer](s, KindStorageContainer, nil, nil), &StorageContainer{OID: 1 << 40}) {
		want := bruteOf(s, KindDeleteVector, func(dv *DeleteVector) bool { return dv.ContainerOID == sc.OID }, nil)
		if got := s.DeleteVectorsOf(sc.OID); !sameObjs(got, want) {
			return fmt.Errorf("DeleteVectorsOf(%d): %v, want %v", sc.OID, got, want)
		}
	}
	return nil
}

func equalFoldASCII(a, b string) bool { return foldName(a) == foldName(b) }

func upper(s string) string {
	b := []byte(s)
	for i, c := range b {
		if 'a' <= c && c <= 'z' {
			b[i] = c - ('a' - 'A')
		}
	}
	return string(b)
}

// indexModel drives a random catalog history. It keeps no model of its
// own: the oracle is the map scan over whatever snapshot results.
type indexModel struct {
	rng *rand.Rand
	c   *Catalog
	seq int
}

func pick[T Object](m *indexModel, k Kind) (T, bool) {
	all := bruteOf[T](m.c.Snapshot(), k, nil, nil)
	if len(all) == 0 {
		var zero T
		return zero, false
	}
	return all[m.rng.Intn(len(all))], true
}

// dropContainer stages the removal of sc and its delete vectors. Like
// pick it scans the map: the history never looks into a snapshot's index
// before the readers do.
func (m *indexModel) dropContainer(txn *Txn, sc *StorageContainer) {
	for _, dv := range bruteOf(m.c.Snapshot(), KindDeleteVector, func(dv *DeleteVector) bool { return dv.ContainerOID == sc.OID }, nil) {
		txn.Delete(dv)
	}
	txn.Delete(sc)
}

// step stages one random change in txn, or none when the chosen change
// has nothing to act on.
func (m *indexModel) step(txn *Txn) {
	m.seq++
	rng, c, snap := m.rng, m.c, m.c.Snapshot()
	switch rng.Intn(12) {
	case 0: // create table (mixed-case names exercise the folded lookup)
		txn.Put(&Table{OID: c.NewOID(), Name: fmt.Sprintf("Tab%d", m.seq), Columns: types.Schema{{Name: "a", Type: types.Int64}}})
	case 1: // alter table
		t, ok := pick[*Table](m, KindTable)
		if !ok {
			return
		}
		nt := t.Clone().(*Table)
		nt.Columns = append(nt.Columns, types.Column{Name: fmt.Sprintf("c%d", m.seq), Type: types.Int64})
		if rng.Intn(3) == 0 {
			nt.Name = fmt.Sprintf("tab%d", m.seq) // rename
		}
		txn.Put(nt)
	case 2: // drop table with everything under it
		t, ok := pick[*Table](m, KindTable)
		if !ok || rng.Intn(3) != 0 {
			return
		}
		for _, p := range bruteOf(snap, KindProjection, func(p *Projection) bool { return p.TableOID == t.OID }, nil) {
			txn.Delete(p)
		}
		for _, sc := range bruteOf(snap, KindStorageContainer, func(sc *StorageContainer) bool { return sc.TableOID == t.OID }, nil) {
			m.dropContainer(txn, sc)
		}
		txn.Delete(t)
	case 3: // create projection, sometimes a buddy
		t, ok := pick[*Table](m, KindTable)
		if !ok {
			return
		}
		txn.Put(&Projection{OID: c.NewOID(), TableOID: t.OID, Name: fmt.Sprintf("Proj%d", m.seq),
			Columns: []string{"a"}, BuddyOffset: rng.Intn(3)})
	case 4: // alter projection
		p, ok := pick[*Projection](m, KindProjection)
		if !ok {
			return
		}
		np := p.Clone().(*Projection)
		np.BuddyOffset = rng.Intn(3)
		txn.Put(np)
	case 5, 6: // add container
		p, ok := pick[*Projection](m, KindProjection)
		if !ok {
			return
		}
		shard := rng.Intn(4)
		if rng.Intn(5) == 0 {
			shard = ReplicaShard
		}
		txn.Put(&StorageContainer{OID: c.NewOID(), ProjOID: p.OID, TableOID: p.TableOID, ShardIndex: shard, RowCount: int64(m.seq)})
	case 7: // drop container and its delete vectors
		sc, ok := pick[*StorageContainer](m, KindStorageContainer)
		if !ok {
			return
		}
		m.dropContainer(txn, sc)
	case 8: // add delete vector
		sc, ok := pick[*StorageContainer](m, KindStorageContainer)
		if !ok {
			return
		}
		txn.Put(&DeleteVector{OID: c.NewOID(), ContainerOID: sc.OID, ProjOID: sc.ProjOID, ShardIndex: sc.ShardIndex, Count: 1})
	case 9: // drop delete vector
		dv, ok := pick[*DeleteVector](m, KindDeleteVector)
		if !ok {
			return
		}
		txn.Delete(dv)
	case 10: // subscribe
		node, shard := fmt.Sprintf("n%d", rng.Intn(4)), rng.Intn(5)-1
		if shard < 0 {
			shard = ReplicaShard
		}
		txn.Put(&Subscription{OID: c.NewOID(), Node: node, ShardIndex: shard, State: SubState(rng.Intn(4))})
	case 11: // subscription state change or drop
		sub, ok := pick[*Subscription](m, KindSubscription)
		if !ok {
			return
		}
		if rng.Intn(4) == 0 {
			txn.Delete(sub)
			return
		}
		ns := sub.Clone().(*Subscription)
		ns.State = SubState(rng.Intn(4))
		txn.Put(ns)
	}
}

// TestSnapshotIndexMatchesMapScan runs seeded random histories through
// every way a Snapshot comes to exist — commit, Apply on a shard-filtered
// replica, ReplaceShard (drop and transfer), FilterShards, checkpoint
// decode and log replay — and checks every lookup against the map scan
// after each step, while reader goroutines re-check older snapshots (two
// readers share each one, so they also race to build its index).
func TestSnapshotIndexMatchesMapScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { runIndexHistory(t, seed) })
	}
}

func runIndexHistory(t *testing.T, seed int64) {
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	fs := udfs.NewMemFS()
	c := New()
	c.SetPersister(NewPersister(fs, "catalog", 4<<10)) // small: checkpoints happen mid-history
	replica := New()
	keep := map[int]bool{0: true, 2: true, ReplicaShard: true}
	c.OnCommit(func(rec *LogRecord) {
		if err := replica.Apply(rec, KeepShards(keep)); err != nil {
			t.Errorf("apply v%d: %v", rec.Version, err)
		}
	})
	m := &indexModel{rng: rng, c: c}

	// Bootstrap: shards and nodes, as cluster creation commits them.
	txn := c.Begin()
	for i := 0; i < 4; i++ {
		txn.Put(&Shard{OID: c.NewOID(), Index: 3 - i, ShardKind: SegmentShard})
		txn.Put(&Node{OID: c.NewOID(), Name: fmt.Sprintf("n%d", 3-i)})
	}
	txn.Put(&Shard{OID: c.NewOID(), Index: 4, ShardKind: ReplicaShardKind})
	if _, err := c.Commit(txn); err != nil {
		t.Fatal(err)
	}

	old := make(chan *Snapshot, 64)
	var readers sync.WaitGroup
	defer func() { // also on t.Fatal: readers must not report into a finished test
		close(old)
		readers.Wait()
	}()
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for s := range old {
				if err := checkSnapshot(s); err != nil {
					t.Errorf("reader, v%d: %v", s.Version(), err)
				}
			}
		}()
	}
	check := func(what string, s *Snapshot) {
		t.Helper()
		if err := checkSnapshot(s); err != nil {
			t.Fatalf("%s, v%d: %v", what, s.Version(), err)
		}
	}

	for step := 0; step < 150; step++ {
		txn := c.Begin()
		for n := 1 + rng.Intn(3); n > 0; n-- {
			m.step(txn)
		}
		if txn.Pending() {
			if _, err := c.Commit(txn); err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
		}
		// The new snapshot goes to two readers before anything here has
		// looked into it; they keep reading it while the history moves on.
		old <- c.Snapshot()
		old <- c.Snapshot()
		check("commit", c.Snapshot())
		check("apply", replica.Snapshot())

		switch step % 10 {
		case 3: // a subscriber's partial catalog
			check("filter", c.Snapshot().FilterShards(map[int]bool{1: true, 3: true}))
		case 5: // unsubscribe and resubscribe: drop a shard's objects, transfer them back
			if _, err := replica.ReplaceShard(2, nil); err != nil {
				t.Fatal(err)
			}
			check("drop", replica.Snapshot())
			if _, err := replica.ReplaceShard(2, c.Snapshot()); err != nil {
				t.Fatal(err)
			}
			check("transfer", replica.Snapshot())
		case 7: // restart: newest checkpoint plus log replay
			loaded, _, err := Load(ctx, fs, "catalog")
			if err != nil {
				t.Fatal(err)
			}
			if loaded.Version() != c.Version() || loaded.Len() != c.Snapshot().Len() {
				t.Fatalf("loaded v%d with %d objects, want v%d with %d", loaded.Version(), loaded.Len(), c.Version(), c.Snapshot().Len())
			}
			check("load", loaded)
		case 9:
			data, err := EncodeCheckpoint(c.Snapshot(), c.NewOID())
			if err != nil {
				t.Fatal(err)
			}
			decoded, _, err := DecodeCheckpoint(data)
			if err != nil {
				t.Fatal(err)
			}
			check("checkpoint", decoded)
		}
	}
}

// TestSnapshotLookupResultsAreCapped: a lookup result is a slice of the
// snapshot's index; appending to one must reallocate, never write into
// what the next caller of the same lookup gets.
func TestSnapshotLookupResultsAreCapped(t *testing.T) {
	c := New()
	txn := c.Begin()
	tbl := &Table{OID: c.NewOID(), Name: "t"}
	proj := &Projection{OID: c.NewOID(), TableOID: tbl.OID, Name: "p"}
	txn.Put(tbl)
	txn.Put(proj)
	txn.Put(&Projection{OID: c.NewOID(), TableOID: tbl.OID, Name: "p_b1", BuddyOffset: 1})
	var sc *StorageContainer
	for i := 0; i < 3; i++ { // three of each, so append-built slices have spare capacity
		sc = &StorageContainer{OID: c.NewOID(), ProjOID: proj.OID, ShardIndex: 0}
		txn.Put(sc)
		txn.Put(&DeleteVector{OID: c.NewOID(), ContainerOID: sc.OID, ShardIndex: 0})
		txn.Put(&Shard{OID: c.NewOID(), Index: i})
		txn.Put(&Node{OID: c.NewOID(), Name: fmt.Sprintf("n%d", i)})
		txn.Put(&Subscription{OID: c.NewOID(), Node: "n0", ShardIndex: 0, State: SubActive})
		txn.Put(&Table{OID: c.NewOID(), Name: fmt.Sprintf("t%d", i)})
	}
	for i := 0; i < 2; i++ {
		txn.Put(&DeleteVector{OID: c.NewOID(), ContainerOID: sc.OID, ShardIndex: 0})
	}
	if _, err := c.Commit(txn); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	capped := func(name string, length, capacity int) {
		t.Helper()
		if length < 2 {
			t.Fatalf("%s: only %d results, the guard needs several", name, length)
		}
		if capacity != length {
			t.Errorf("%s: cap %d > len %d: append would write into the snapshot index", name, capacity, length)
		}
	}
	x := s.Tables()
	capped("Tables", len(x), cap(x))
	p := s.ProjectionsOf(tbl.OID)
	capped("ProjectionsOf", len(p), cap(p))
	sh := s.Shards()
	capped("Shards", len(sh), cap(sh))
	n := s.Nodes()
	capped("Nodes", len(n), cap(n))
	all := s.Subscriptions("")
	capped("Subscriptions(all)", len(all), cap(all))
	mine := s.Subscriptions("n0")
	capped("Subscriptions(node)", len(mine), cap(mine))
	subs := s.SubscribersOf(0)
	capped("SubscribersOf", len(subs), cap(subs))
	act := s.SubscribersOf(0, SubActive)
	capped("SubscribersOf(state)", len(act), cap(act))
	cs := s.ContainersOf(proj.OID, GlobalShard)
	capped("ContainersOf(all)", len(cs), cap(cs))
	cs0 := s.ContainersOf(proj.OID, 0)
	capped("ContainersOf(shard)", len(cs0), cap(cs0))
	dvs := s.DeleteVectorsOf(sc.OID)
	capped("DeleteVectorsOf", len(dvs), cap(dvs))

	// And the behaviour the capacity buys: growing one result leaves the
	// next caller's untouched.
	_ = append(cs, &StorageContainer{OID: 1 << 40})
	if err := checkSnapshot(s); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotLookupsDoNotAllocate: once the index is built a lookup
// hands out what the index holds; only a SubscribersOf whose state list
// filters a subscription out builds a result.
func TestSnapshotLookupsDoNotAllocate(t *testing.T) {
	c := New()
	txn := c.Begin()
	tbl := &Table{OID: c.NewOID(), Name: "t"}
	proj := &Projection{OID: c.NewOID(), TableOID: tbl.OID, Name: "p"}
	sc := &StorageContainer{OID: c.NewOID(), ProjOID: proj.OID, ShardIndex: 0}
	for _, o := range []Object{tbl, proj, sc,
		&DeleteVector{OID: c.NewOID(), ContainerOID: sc.OID},
		&Shard{OID: c.NewOID()}, &Node{OID: c.NewOID(), Name: "n0"},
		&Subscription{OID: c.NewOID(), Node: "n0", State: SubActive}} {
		txn.Put(o)
	}
	if _, err := c.Commit(txn); err != nil {
		t.Fatal(err)
	}
	s := c.Snapshot()
	s.Tables() // build the index
	visit := func(Object) bool { return true }
	if avg := testing.AllocsPerRun(50, func() {
		s.ForEach(KindStorageContainer, visit)
		s.Tables()
		s.TableByName("t")
		s.ProjectionByName("p")
		s.ProjectionsOf(tbl.OID)
		s.Shards()
		s.SegmentShardCount()
		s.Subscriptions("")
		s.Subscriptions("n0")
		s.SubscribersOf(0)
		s.SubscribersOf(0, SubActive, SubRemoving)
		s.Nodes()
		s.NodeByName("n0")
		s.ContainersOf(proj.OID, GlobalShard)
		s.ContainersOf(proj.OID, 0)
		s.DeleteVectorsOf(sc.OID)
	}); avg != 0 {
		t.Errorf("snapshot lookups allocate %.1f times per round, want 0", avg)
	}
}
