package udfs

import (
	"context"
	"errors"
	"testing"

	"eon/internal/objstore"
)

// fsImpls returns one of each FileSystem implementation for table-driven
// tests.
func fsImpls(t *testing.T) map[string]FileSystem {
	t.Helper()
	return map[string]FileSystem{
		"mem":    NewMemFS(),
		"os":     NewOSFS(t.TempDir()),
		"object": NewObjectFS(objstore.NewMem()),
	}
}

func TestWriteReadAllImpls(t *testing.T) {
	ctx := context.Background()
	for name, fs := range fsImpls(t) {
		t.Run(name, func(t *testing.T) {
			if err := fs.WriteFile(ctx, "dir/file.bin", []byte("payload")); err != nil {
				t.Fatal(err)
			}
			got, err := fs.ReadFile(ctx, "dir/file.bin")
			if err != nil || string(got) != "payload" {
				t.Fatalf("read = %q, %v", got, err)
			}
		})
	}
}

func TestNoOverwriteAllImpls(t *testing.T) {
	ctx := context.Background()
	for name, fs := range fsImpls(t) {
		t.Run(name, func(t *testing.T) {
			fs.WriteFile(ctx, "f", []byte("1"))
			if err := fs.WriteFile(ctx, "f", []byte("2")); err == nil {
				t.Error("overwrite should fail — files are immutable")
			}
		})
	}
}

func TestReadAtAllImpls(t *testing.T) {
	ctx := context.Background()
	for name, fs := range fsImpls(t) {
		t.Run(name, func(t *testing.T) {
			fs.WriteFile(ctx, "f", []byte("0123456789"))
			got, err := fs.ReadAt(ctx, "f", 2, 3)
			if err != nil || string(got) != "234" {
				t.Fatalf("readat = %q, %v", got, err)
			}
			got, err = fs.ReadAt(ctx, "f", 8, -1)
			if err != nil || string(got) != "89" {
				t.Fatalf("readat to EOF = %q, %v", got, err)
			}
		})
	}
}

func TestListPrefixAllImpls(t *testing.T) {
	ctx := context.Background()
	for name, fs := range fsImpls(t) {
		t.Run(name, func(t *testing.T) {
			fs.WriteFile(ctx, "a/1", []byte("x"))
			fs.WriteFile(ctx, "a/2", []byte("xy"))
			fs.WriteFile(ctx, "b/1", []byte("z"))
			infos, err := fs.List(ctx, "a/")
			if err != nil || len(infos) != 2 {
				t.Fatalf("list = %v, %v", infos, err)
			}
			if infos[0].Path != "a/1" || infos[1].Size != 2 {
				t.Errorf("list contents = %v", infos)
			}
		})
	}
}

func TestRemoveAllImpls(t *testing.T) {
	ctx := context.Background()
	for name, fs := range fsImpls(t) {
		t.Run(name, func(t *testing.T) {
			fs.WriteFile(ctx, "f", []byte("v"))
			if err := fs.Remove(ctx, "f"); err != nil {
				t.Fatal(err)
			}
			if err := fs.Remove(ctx, "f"); err != nil {
				t.Errorf("removing missing file should be nil, got %v", err)
			}
			if _, err := fs.ReadFile(ctx, "f"); !errors.Is(err, ErrNotFound) {
				t.Errorf("want ErrNotFound, got %v", err)
			}
		})
	}
}

func TestExistsHelper(t *testing.T) {
	ctx := context.Background()
	fs := NewMemFS()
	fs.WriteFile(ctx, "abc", []byte("v"))
	ok, err := Exists(ctx, fs, "abc")
	if err != nil || !ok {
		t.Error("abc should exist")
	}
	if ok, _ := Exists(ctx, fs, "ab"); ok {
		t.Error("prefix must not count as existence")
	}
}

func TestMemFSTotalBytes(t *testing.T) {
	ctx := context.Background()
	fs := NewMemFS()
	fs.WriteFile(ctx, "a", make([]byte, 7))
	fs.WriteFile(ctx, "b", make([]byte, 3))
	if fs.TotalBytes() != 10 {
		t.Errorf("total = %d", fs.TotalBytes())
	}
}

func TestMemFSCopySemantics(t *testing.T) {
	ctx := context.Background()
	fs := NewMemFS()
	src := []byte("abc")
	fs.WriteFile(ctx, "f", src)
	src[0] = 'z'
	got, _ := fs.ReadFile(ctx, "f")
	if string(got) != "abc" {
		t.Error("write must copy input")
	}
}

// TestMemFSReadsAreStableViews: reads hand out views of the stored image,
// which files being immutable makes safe — a view keeps its bytes after
// the file is removed (or removed and written again), and appending to
// one cannot reach the stored image.
func TestMemFSReadsAreStableViews(t *testing.T) {
	ctx := context.Background()
	fs := NewMemFS()
	if err := fs.WriteFile(ctx, "f", []byte("0123456789")); err != nil {
		t.Fatal(err)
	}
	whole, err := fs.ReadFile(ctx, "f")
	if err != nil {
		t.Fatal(err)
	}
	part, err := fs.ReadAt(ctx, "f", 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if cap(whole) != len(whole) || cap(part) != len(part) {
		t.Errorf("views have spare capacity (%d/%d, %d/%d): append would write into the file", len(whole), cap(whole), len(part), cap(part))
	}
	_ = append(part, 'X') // must reallocate, not overwrite byte 6
	if again, _ := fs.ReadFile(ctx, "f"); string(again) != "0123456789" {
		t.Errorf("appending to a view changed the file: %q", again)
	}

	if err := fs.Remove(ctx, "f"); err != nil {
		t.Fatal(err)
	}
	if err := fs.WriteFile(ctx, "f", []byte("abcdefghij")); err != nil {
		t.Fatal(err)
	}
	if string(whole) != "0123456789" || string(part) != "2345" {
		t.Errorf("views changed after Remove and rewrite: %q, %q", whole, part)
	}
	if now, _ := fs.ReadFile(ctx, "f"); string(now) != "abcdefghij" {
		t.Errorf("rewritten file reads %q", now)
	}
}

func TestObjectFSNotFoundMapping(t *testing.T) {
	fs := NewObjectFS(objstore.NewMem())
	_, err := fs.ReadFile(context.Background(), "missing")
	if !errors.Is(err, ErrNotFound) {
		t.Errorf("want udfs.ErrNotFound, got %v", err)
	}
}

func TestOSFSPathEscapePrevented(t *testing.T) {
	ctx := context.Background()
	fs := NewOSFS(t.TempDir())
	// Path traversal must stay inside the root.
	if err := fs.WriteFile(ctx, "../../etc/evil", []byte("x")); err != nil {
		t.Fatalf("sanitized write failed: %v", err)
	}
	infos, _ := fs.List(ctx, "")
	if len(infos) != 1 {
		t.Fatalf("list = %v", infos)
	}
	for _, in := range infos {
		if len(in.Path) > 0 && in.Path[0] == '.' {
			t.Errorf("escaped path: %q", in.Path)
		}
	}
}
