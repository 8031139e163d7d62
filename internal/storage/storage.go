// Package storage builds and reads ROS containers and delete vectors on
// behalf of the engine: globally unique storage identifiers (paper §5.1,
// Figure 7), the hash-prefixed flat namespace used on shared storage
// (§5.3), per-column file construction with stats, optional bundling of
// small columns, and the tombstone delete-vector format (§2.3).
package storage

import (
	"context"
	"fmt"

	"eon/internal/catalog"
	"eon/internal/cluster"
	"eon/internal/rosfile"
	"eon/internal/types"
)

// DefaultBundleThreshold is the total byte size under which a container's
// columns are concatenated into a single bundle file (§2.3: "if the
// column data is small, Vertica concatenates multiple column files
// together to reduce the overall file count").
const DefaultBundleThreshold = 64 << 10

// SID is a globally unique storage identifier: the node's 120-bit random
// instance id plus a 64-bit local object id (Figure 7). Nodes create SIDs
// without coordinating, and cloned clusters still produce distinct names.
func SID(inst cluster.InstanceID, localOID catalog.OID) string {
	return fmt.Sprintf("%s_%016x", inst, uint64(localOID))
}

// DataPath places a storage file in the shared flat namespace. The
// leading characters of the (random) instance id act as the hash-based
// prefix that spreads load across object-store servers (§5.3).
func DataPath(sid, column string) string {
	return fmt.Sprintf("data/%s/%s_%s", sid[:2], sid, column)
}

// BundlePath is the path of a bundled (single-file) container.
func BundlePath(sid string) string {
	return fmt.Sprintf("data/%s/%s_bundle", sid[:2], sid)
}

// InstancePrefix returns the namespace prefix of all files created by an
// instance under a given two-character fanout directory; used by the
// leaked-file scrub to skip files of running instances (§6.5).
func InstancePrefix(inst cluster.InstanceID) string {
	return fmt.Sprintf("data/%s/%s_", string(inst)[:2], inst)
}

// OIDAllocator mints catalog OIDs; *catalog.Catalog satisfies it.
type OIDAllocator interface {
	NewOID() catalog.OID
}

// WriteSpec describes the container being built.
type WriteSpec struct {
	Projection *catalog.Projection
	// Schema is the projection's column schema, in projection column
	// order; the batch's columns must align with it.
	Schema types.Schema
	// ShardIndex is the segment shard owning every tuple, or
	// catalog.ReplicaShard for replicated projections.
	ShardIndex int
	// PartitionKey tags the container with its table-partition value.
	PartitionKey string
	// OwnerNode is set in Enterprise mode only.
	OwnerNode string
	// BundleThreshold overrides DefaultBundleThreshold; <0 disables
	// bundling.
	BundleThreshold int64
	// CreateVersion stamps the catalog version for mergeout bookkeeping.
	CreateVersion uint64
}

// BuiltContainer is the result of BuildContainer: catalog metadata plus
// the file images to persist. The caller writes the files (cache +
// shared storage) before committing the metadata — files always precede
// commit (§2.4, §4.5).
type BuiltContainer struct {
	Meta  *catalog.StorageContainer
	Files map[string][]byte
}

// BuildContainer sorts the batch by the projection sort key, encodes each
// column into the ROS format, computes column stats, and returns the
// container metadata and file images. An empty batch yields nil.
func BuildContainer(alloc OIDAllocator, inst cluster.InstanceID, spec WriteSpec, batch *types.Batch) (*BuiltContainer, error) {
	if batch == nil || batch.NumRows() == 0 {
		return nil, nil
	}
	if len(spec.Schema) != batch.NumCols() {
		return nil, fmt.Errorf("storage: schema arity %d != batch arity %d", len(spec.Schema), batch.NumCols())
	}
	// Resolve sort key columns.
	var sortKeys []types.SortKey
	for _, k := range spec.Projection.SortKey {
		i := spec.Schema.ColumnIndex(k)
		if i < 0 {
			return nil, fmt.Errorf("storage: sort key column %q not in projection schema", k)
		}
		sortKeys = append(sortKeys, types.SortKey{Col: i})
	}
	sorted := types.SortBatch(batch, sortKeys)

	oid := alloc.NewOID()
	sid := SID(inst, oid)
	meta := &catalog.StorageContainer{
		OID:           oid,
		ProjOID:       spec.Projection.OID,
		TableOID:      spec.Projection.TableOID,
		ShardIndex:    spec.ShardIndex,
		RowCount:      int64(sorted.NumRows()),
		Files:         map[string]catalog.FileRef{},
		ColStats:      map[string]types.ColumnStats{},
		PartitionKey:  spec.PartitionKey,
		OwnerNode:     spec.OwnerNode,
		CreateVersion: spec.CreateVersion,
	}

	images := make(map[string][]byte, len(spec.Schema))
	var names []string
	var total int64
	for i, col := range spec.Schema {
		isLeadingSort := len(sortKeys) > 0 && sortKeys[0].Col == i
		img, stats := rosfile.WriteColumn(sorted.Cols[i], rosfile.WriteOptions{Sorted: isLeadingSort})
		images[col.Name] = img
		names = append(names, col.Name)
		total += int64(len(img))
		meta.ColStats[col.Name] = stats
	}

	threshold := spec.BundleThreshold
	if threshold == 0 {
		threshold = DefaultBundleThreshold
	}
	files := map[string][]byte{}
	if threshold > 0 && total < threshold {
		imgs := make([][]byte, len(names))
		for i, n := range names {
			imgs[i] = images[n]
		}
		bundle, err := rosfile.BuildBundle(names, imgs)
		if err != nil {
			return nil, err
		}
		path := BundlePath(sid)
		files[path] = bundle
		meta.Bundle = catalog.FileRef{Path: path, Size: int64(len(bundle))}
		meta.SizeBytes = int64(len(bundle))
	} else {
		for _, n := range names {
			path := DataPath(sid, n)
			files[path] = images[n]
			meta.Files[n] = catalog.FileRef{Path: path, Size: int64(len(images[n]))}
			meta.SizeBytes += int64(len(images[n]))
		}
	}
	return &BuiltContainer{Meta: meta, Files: files}, nil
}

// FetchFunc reads a storage file by path (through the cache in Eon mode,
// from local disk in Enterprise mode).
type FetchFunc func(ctx context.Context, path string) ([]byte, error)

// ColumnFiles calls visit with the path of every file that holds one of
// the container's requested columns — the files OpenColumns reads, each
// once: per-column files in cols order, the bundle at its first column.
// Columns may live in per-column files, a bundle, or a mix (side files
// appear when ALTER TABLE ADD COLUMN extends a bundled container).
func ColumnFiles(sc *catalog.StorageContainer, cols []string, visit func(path string)) error {
	bundled := false
	for _, c := range cols {
		if ref, ok := sc.Files[c]; ok {
			visit(ref.Path)
			continue
		}
		if sc.Bundle.Path == "" {
			return fmt.Errorf("storage: container %d has no column %q", sc.OID, c)
		}
		if !bundled {
			bundled = true
			visit(sc.Bundle.Path)
		}
	}
	return nil
}

// OpenColumns returns a rosfile reader per requested column of the
// container, reading the files ColumnFiles lists through fetch, one call
// after another: a caller that wants the reads to overlap starts them
// beforehand and hands in a fetch that waits for them (Prefetch.Fetch).
func OpenColumns(ctx context.Context, sc *catalog.StorageContainer, cols []string, fetch FetchFunc) (map[string]*rosfile.Reader, error) {
	out := make(map[string]*rosfile.Reader, len(cols))
	var bundle *rosfile.Bundle
	for _, c := range cols {
		if ref, ok := sc.Files[c]; ok {
			data, err := fetch(ctx, ref.Path)
			if err != nil {
				return nil, fmt.Errorf("storage: fetch %s: %w", ref.Path, err)
			}
			if out[c], err = rosfile.NewReader(data); err != nil {
				return nil, err
			}
			continue
		}
		if sc.Bundle.Path == "" {
			return nil, fmt.Errorf("storage: container %d has no column %q", sc.OID, c)
		}
		if bundle == nil {
			data, err := fetch(ctx, sc.Bundle.Path)
			if err != nil {
				return nil, fmt.Errorf("storage: fetch bundle %s: %w", sc.Bundle.Path, err)
			}
			if bundle, err = rosfile.OpenBundle(data); err != nil {
				return nil, err
			}
		}
		r, err := bundle.Open(c)
		if err != nil {
			return nil, err
		}
		out[c] = r
	}
	return out, nil
}

// ReadColumns materializes whole columns of a container as a batch in the
// given column order, reading its files with at most concurrency
// concurrent requests (serially, on the caller's goroutine, at 1).
func ReadColumns(ctx context.Context, sc *catalog.StorageContainer, schema types.Schema, fetch FetchFunc, concurrency int) (*types.Batch, error) {
	names := schema.Names()
	if concurrency > 1 {
		var paths []string
		if err := ColumnFiles(sc, names, func(p string) { paths = append(paths, p) }); err != nil {
			return nil, err
		}
		pre := StartPrefetch(ctx, paths, concurrency, fetch)
		defer pre.Stop()
		fetch = pre.Fetch
	}
	readers, err := OpenColumns(ctx, sc, names, fetch)
	if err != nil {
		return nil, err
	}
	b := &types.Batch{Cols: make([]*types.Vector, len(names))}
	for i, n := range names {
		v, err := readers[n].ReadAll()
		if err != nil {
			return nil, err
		}
		v.Typ = schema[i].Type // restore logical type (Date/Timestamp)
		b.Cols[i] = v
	}
	return b, nil
}
