package main

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"eon/internal/objstore"
)

// objCall is one timed shared-storage request as seen from outside the
// program: the decorator below wraps the objstore.Store handed to
// core.Create, so every request of every layer above passes through it.
type objCall struct {
	Kind     string // get, put, list, delete
	Catalog  bool   // key under the catalog metadata prefix
	Bytes    int64
	Start    time.Time
	End      time.Time
	Failed   bool
	Inflight int32 // requests in flight when this one started, itself included
}

// tracedStore times every call into the wrapped store. It is only
// installed on traced runs; end-to-end metrics read Sim.Stats() instead.
type tracedStore struct {
	inner    objstore.Store
	inflight atomic.Int32

	mu    sync.Mutex
	calls []objCall
}

func newTracedStore(inner objstore.Store) *tracedStore {
	return &tracedStore{inner: inner}
}

func (t *tracedStore) begin() (time.Time, int32) {
	return time.Now(), t.inflight.Add(1)
}

func (t *tracedStore) end(kind, key string, n int64, start time.Time, inflight int32, err error) {
	end := time.Now()
	t.inflight.Add(-1)
	c := objCall{
		Kind: kind, Catalog: strings.HasPrefix(key, "metadata/"), Bytes: n,
		Start: start, End: end, Failed: err != nil, Inflight: inflight,
	}
	t.mu.Lock()
	t.calls = append(t.calls, c)
	t.mu.Unlock()
}

func (t *tracedStore) count() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.calls)
}

// snapshot returns the calls recorded so far, in completion order.
func (t *tracedStore) snapshot() []objCall {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]objCall(nil), t.calls...)
}

func (t *tracedStore) Put(ctx context.Context, key string, data []byte) error {
	start, in := t.begin()
	err := t.inner.Put(ctx, key, data)
	t.end("put", key, int64(len(data)), start, in, err)
	return err
}

func (t *tracedStore) Get(ctx context.Context, key string) ([]byte, error) {
	start, in := t.begin()
	data, err := t.inner.Get(ctx, key)
	t.end("get", key, int64(len(data)), start, in, err)
	return data, err
}

func (t *tracedStore) GetRange(ctx context.Context, key string, offset, length int64) ([]byte, error) {
	start, in := t.begin()
	data, err := t.inner.GetRange(ctx, key, offset, length)
	t.end("get", key, int64(len(data)), start, in, err)
	return data, err
}

func (t *tracedStore) List(ctx context.Context, prefix string) ([]objstore.Info, error) {
	start, in := t.begin()
	infos, err := t.inner.List(ctx, prefix)
	t.end("list", prefix, 0, start, in, err)
	return infos, err
}

func (t *tracedStore) Delete(ctx context.Context, key string) error {
	start, in := t.begin()
	err := t.inner.Delete(ctx, key)
	t.end("delete", key, 0, start, in, err)
	return err
}
