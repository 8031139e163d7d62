package storage

import (
	"fmt"
	"slices"
	"sort"

	"eon/internal/catalog"
	"eon/internal/cluster"
	"eon/internal/rosfile"
	"eon/internal/types"
)

// DeleteVectorPath names a delete vector file in the shared namespace.
func DeleteVectorPath(sid string) string {
	return fmt.Sprintf("data/%s/%s_dv", sid[:2], sid)
}

// BuildDeleteVector encodes a set of deleted tuple positions (offsets
// within one container) as a sorted int64 ROS column — "stored using the
// same format as regular columns" (§2.3).
func BuildDeleteVector(positions []int64) []byte {
	sorted := append([]int64(nil), positions...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	v := types.NewVector(types.Int64, len(sorted))
	prev := int64(-1)
	for _, p := range sorted {
		if p == prev {
			continue // dedupe
		}
		v.Append(types.NewInt(p))
		prev = p
	}
	img, _ := rosfile.WriteColumn(v, rosfile.WriteOptions{Sorted: true})
	return img
}

// ReadDeleteVector decodes delete vector file bytes into sorted
// positions.
func ReadDeleteVector(data []byte) ([]int64, error) {
	r, err := rosfile.NewReader(data)
	if err != nil {
		return nil, err
	}
	v, err := r.ReadAll()
	if err != nil {
		return nil, err
	}
	return v.Ints, nil
}

// NewDeleteVectorMeta builds the catalog object for a delete vector file.
func NewDeleteVectorMeta(alloc OIDAllocator, inst cluster.InstanceID, sc *catalog.StorageContainer, positions []int64, ownerNode string) (*catalog.DeleteVector, []byte) {
	data := BuildDeleteVector(positions)
	oid := alloc.NewOID()
	path := DeleteVectorPath(SID(inst, oid))
	return &catalog.DeleteVector{
		OID:          oid,
		ContainerOID: sc.OID,
		ProjOID:      sc.ProjOID,
		ShardIndex:   sc.ShardIndex,
		File:         catalog.FileRef{Path: path, Size: int64(len(data))},
		Count:        int64(countDistinct(positions)),
		OwnerNode:    ownerNode,
	}, data
}

func countDistinct(positions []int64) int {
	seen := make(map[int64]struct{}, len(positions))
	for _, p := range positions {
		seen[p] = struct{}{}
	}
	return len(seen)
}

// DeleteSet is the merged view of all delete vectors over one container:
// its deleted positions, sorted and distinct.
type DeleteSet struct {
	positions []int64
}

// NewDeleteSet merges position lists, each sorted and distinct as a
// delete vector file is. A single list is used as is, so a container
// with at most one delete vector allocates nothing here.
func NewDeleteSet(lists ...[]int64) DeleteSet {
	if len(lists) == 1 {
		return DeleteSet{lists[0]}
	}
	var all []int64
	for _, l := range lists {
		all = append(all, l...)
	}
	slices.Sort(all)
	return DeleteSet{slices.Compact(all)}
}

// Len returns the number of deleted positions.
func (d *DeleteSet) Len() int { return len(d.positions) }

// Contains reports whether tuple position p is deleted.
func (d *DeleteSet) Contains(p int64) bool {
	_, ok := slices.BinarySearch(d.positions, p)
	return ok
}

// LivePositions returns, for rows [base, base+n), the in-batch indexes of
// rows that are not deleted: it finds the first deleted position at or
// after base and walks the sorted positions forward with the rows.
func (d *DeleteSet) LivePositions(base int64, n int) []int {
	out := make([]int, 0, n)
	next, _ := slices.BinarySearch(d.positions, base)
	for i := 0; i < n; i++ {
		if next < len(d.positions) && d.positions[next] == base+int64(i) {
			next++
			continue
		}
		out = append(out, i)
	}
	return out
}
