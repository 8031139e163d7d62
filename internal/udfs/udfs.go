// Package udfs is the user-defined filesystem API (paper §5.3, Figure 9):
// a single abstraction through which the execution engine scans and loads
// files, with interchangeable backends. This reproduction ships three
// implementations: an in-memory filesystem (the default "local disk" of
// simulated nodes), a real POSIX filesystem rooted at a directory, and an
// object-store-backed filesystem (the S3 path).
package udfs

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"eon/internal/objstore"
)

// ErrNotFound is returned when a path does not exist.
var ErrNotFound = errors.New("udfs: file not found")

// FileInfo describes one file.
type FileInfo struct {
	Path string
	Size int64
}

// FileSystem is the UDFS API. Paths are slash-separated and relative to
// the filesystem root. Files are written whole and never modified — the
// lowest common denominator the shared-storage backends support.
//
// Bytes returned by ReadFile and ReadAt are read-only: a backend may hand
// out a view of the stored image rather than a copy. Because files never
// change, a view stays valid, with its original contents, after the file
// is removed.
type FileSystem interface {
	// WriteFile creates a file with the given contents. Overwrite of an
	// existing path is an error.
	WriteFile(ctx context.Context, path string, data []byte) error
	// ReadFile reads a whole file.
	ReadFile(ctx context.Context, path string) ([]byte, error)
	// ReadAt reads length bytes at offset (length < 0 reads to EOF).
	ReadAt(ctx context.Context, path string, offset, length int64) ([]byte, error)
	// Remove deletes a file; removing a missing path is not an error.
	Remove(ctx context.Context, path string) error
	// List returns files whose path starts with prefix, sorted by path.
	List(ctx context.Context, prefix string) ([]FileInfo, error)
}

// Exists reports whether path exists on fs, using the List API (the
// engine never issues HEAD-style probes; see paper §5.3).
func Exists(ctx context.Context, fs FileSystem, path string) (bool, error) {
	infos, err := fs.List(ctx, path)
	if err != nil {
		return false, err
	}
	for _, in := range infos {
		if in.Path == path {
			return true, nil
		}
	}
	return false, nil
}

// MemFS is an in-memory FileSystem, used as the simulated local disk of
// cluster nodes. Safe for concurrent use. WriteFile stores a private copy
// of its argument and reads return views of that copy — the in-memory
// stand-in for reading a local file through the page cache.
type MemFS struct {
	mu    sync.RWMutex
	files map[string][]byte
}

// NewMemFS returns an empty in-memory filesystem.
func NewMemFS() *MemFS { return &MemFS{files: make(map[string][]byte)} }

// WriteFile implements FileSystem.
func (m *MemFS) WriteFile(ctx context.Context, path string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[path]; ok {
		return fmt.Errorf("udfs: %s already exists", path)
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	m.files[path] = cp
	return nil
}

// ReadFile implements FileSystem.
func (m *MemFS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	return m.ReadAt(ctx, path, 0, -1)
}

// ReadAt implements FileSystem.
func (m *MemFS) ReadAt(ctx context.Context, path string, offset, length int64) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	data, ok := m.files[path]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	if offset < 0 || offset > int64(len(data)) {
		return nil, fmt.Errorf("udfs: offset %d out of range for %s", offset, path)
	}
	end := int64(len(data))
	if length >= 0 && offset+length < end {
		end = offset + length
	}
	// Capped, so appending to the view reallocates instead of writing
	// into the stored image.
	return data[offset:end:end], nil
}

// Remove implements FileSystem.
func (m *MemFS) Remove(ctx context.Context, path string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.files, path)
	return nil
}

// List implements FileSystem.
func (m *MemFS) List(ctx context.Context, prefix string) ([]FileInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	var out []FileInfo
	for p, d := range m.files {
		if strings.HasPrefix(p, prefix) {
			out = append(out, FileInfo{Path: p, Size: int64(len(d))})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// TotalBytes returns the sum of file sizes, used for cache budgeting.
func (m *MemFS) TotalBytes() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	var n int64
	for _, d := range m.files {
		n += int64(len(d))
	}
	return n
}

// OSFS is a FileSystem rooted at a real directory on the host.
type OSFS struct {
	root string
}

// NewOSFS returns a POSIX filesystem rooted at dir.
func NewOSFS(dir string) *OSFS { return &OSFS{root: dir} }

func (o *OSFS) real(path string) (string, error) {
	clean := filepath.Clean("/" + path)
	return filepath.Join(o.root, clean), nil
}

// WriteFile implements FileSystem.
func (o *OSFS) WriteFile(ctx context.Context, path string, data []byte) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	rp, err := o.real(path)
	if err != nil {
		return err
	}
	if _, err := os.Stat(rp); err == nil {
		return fmt.Errorf("udfs: %s already exists", path)
	}
	if err := os.MkdirAll(filepath.Dir(rp), 0o755); err != nil {
		return err
	}
	return os.WriteFile(rp, data, 0o644)
}

// ReadFile implements FileSystem.
func (o *OSFS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rp, err := o.real(path)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(rp)
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return data, err
}

// ReadAt implements FileSystem.
func (o *OSFS) ReadAt(ctx context.Context, path string, offset, length int64) ([]byte, error) {
	data, err := o.ReadFile(ctx, path)
	if err != nil {
		return nil, err
	}
	if offset < 0 || offset > int64(len(data)) {
		return nil, fmt.Errorf("udfs: offset %d out of range for %s", offset, path)
	}
	end := int64(len(data))
	if length >= 0 && offset+length < end {
		end = offset + length
	}
	return data[offset:end], nil
}

// Remove implements FileSystem.
func (o *OSFS) Remove(ctx context.Context, path string) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	rp, err := o.real(path)
	if err != nil {
		return err
	}
	err = os.Remove(rp)
	if os.IsNotExist(err) {
		return nil
	}
	return err
}

// List implements FileSystem.
func (o *OSFS) List(ctx context.Context, prefix string) ([]FileInfo, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var out []FileInfo
	err := filepath.Walk(o.root, func(p string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return nil //nolint:nilerr // skip unreadable entries
		}
		rel, err := filepath.Rel(o.root, p)
		if err != nil {
			return nil //nolint:nilerr
		}
		rel = filepath.ToSlash(rel)
		if strings.HasPrefix(rel, prefix) {
			out = append(out, FileInfo{Path: rel, Size: fi.Size()})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// ObjectFS adapts an objstore.Store to the FileSystem interface — the path
// by which Eon mode reads and writes shared storage.
type ObjectFS struct {
	store objstore.Store
}

// NewObjectFS wraps an object store.
func NewObjectFS(store objstore.Store) *ObjectFS { return &ObjectFS{store: store} }

// Store returns the underlying object store.
func (o *ObjectFS) Store() objstore.Store { return o.store }

// WriteFile implements FileSystem.
func (o *ObjectFS) WriteFile(ctx context.Context, path string, data []byte) error {
	return o.store.Put(ctx, path, data)
}

// ReadFile implements FileSystem.
func (o *ObjectFS) ReadFile(ctx context.Context, path string) ([]byte, error) {
	data, err := o.store.Get(ctx, path)
	if errors.Is(err, objstore.ErrNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return data, err
}

// ReadAt implements FileSystem.
func (o *ObjectFS) ReadAt(ctx context.Context, path string, offset, length int64) ([]byte, error) {
	data, err := o.store.GetRange(ctx, path, offset, length)
	if errors.Is(err, objstore.ErrNotFound) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, path)
	}
	return data, err
}

// Remove implements FileSystem.
func (o *ObjectFS) Remove(ctx context.Context, path string) error {
	return o.store.Delete(ctx, path)
}

// List implements FileSystem.
func (o *ObjectFS) List(ctx context.Context, prefix string) ([]FileInfo, error) {
	infos, err := o.store.List(ctx, prefix)
	if err != nil {
		return nil, err
	}
	out := make([]FileInfo, len(infos))
	for i, in := range infos {
		out[i] = FileInfo{Path: in.Key, Size: in.Size}
	}
	return out, nil
}
