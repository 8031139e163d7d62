package core

import (
	"context"
	"errors"
	"testing"
	"time"

	"eon/internal/types"
)

var pipeSchema = types.Schema{{Name: "x", Type: types.Int64}}

func pipeBatch(v int64) *types.Batch {
	b := types.NewBatch(pipeSchema, 1)
	b.AppendRow(types.Row{types.NewInt(v)})
	return b
}

// With k producers the stream stays open until the k-th finish, and begin
// fires once however often the consumer pulls.
func TestPipeEndsAfterLastProducer(t *testing.T) {
	const k = 3
	p := newPipe(context.Background(), pipeSchema, k)
	begins := 0
	p.begin = func() { begins++ }
	for i := 0; i < k-1; i++ {
		p.finish(nil)
	}
	select {
	case _, ok := <-p.ch:
		t.Fatalf("stream ended (or yielded, ok=%v) before the last producer finished", ok)
	default:
	}
	if err := p.push(pipeBatch(7)); err != nil {
		t.Fatal(err)
	}
	b, err := p.Next()
	if err != nil || b == nil || b.Row(0)[0].I != 7 {
		t.Fatalf("Next = %v, %v; want the pushed batch", b, err)
	}
	p.finish(nil)
	for i := 0; i < 2; i++ {
		if b, err := p.Next(); b != nil || err != nil {
			t.Fatalf("Next after the last finish = %v, %v; want end of stream", b, err)
		}
	}
	if begins != 1 {
		t.Errorf("begin fired %d times, want 1", begins)
	}
}

// The first producer error reaches the consumer, and a second erroring
// finish neither blocks nor replaces it.
func TestPipeFirstErrorWins(t *testing.T) {
	first, second := errors.New("first"), errors.New("second")
	p := newPipe(context.Background(), pipeSchema, 2)
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.finish(first)
		p.finish(second)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("an erroring finish blocked")
	}
	if _, err := p.Next(); !errors.Is(err, first) {
		t.Fatalf("Next error = %v, want %v", err, first)
	}
	if b, err := p.Next(); b != nil || err != nil {
		t.Fatalf("Next after the error = %v, %v; want end of stream", b, err)
	}
}

// Cancelling the query context unblocks a producer stuck on a full pipe
// and a consumer waiting on an empty one.
func TestPipeCancelUnblocks(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	full := newPipe(ctx, pipeSchema, 1)
	for i := 0; i < streamDepth; i++ {
		if err := full.push(pipeBatch(int64(i))); err != nil {
			t.Fatal(err)
		}
	}
	empty := newPipe(ctx, pipeSchema, 1)
	pushErr, nextErr := make(chan error, 1), make(chan error, 1)
	go func() { pushErr <- full.push(pipeBatch(-1)) }()
	go func() {
		_, err := empty.Next()
		nextErr <- err
	}()
	cancel()
	for what, ch := range map[string]chan error{"push": pushErr, "Next": nextErr} {
		select {
		case err := <-ch:
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s returned %v, want context.Canceled", what, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s still blocked after cancel", what)
		}
	}
}
