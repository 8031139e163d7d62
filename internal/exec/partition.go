package exec

import (
	"eon/internal/hashring"
	"eon/internal/types"
)

// Partition splits a batch into n parts by the hash of the given key
// columns: part to(h) receives the rows whose key hash is h, and a part
// no row reaches is nil. It is the one split behind the per-shard output
// of loads and mergeout (§4.5: "an executor which is responsible for
// multiple shards will locally split the output data into separate
// streams for each shard") and the per-node output of a reshuffle.
func Partition(b *types.Batch, cols []int, n int, to func(h uint32) int) []*types.Batch {
	idx := make([][]int, n)
	for i, h := range hashring.HashBatchCols(b, cols, nil) {
		p := to(h)
		idx[p] = append(idx[p], i)
	}
	out := make([]*types.Batch, n)
	for i, rows := range idx {
		if len(rows) > 0 {
			out[i] = b.Gather(rows)
		}
	}
	return out
}
