// The per-job event stream: an append-only in-memory byte log that one
// writer (the job's span stream) appends to and any number of HTTP readers
// tail concurrently. Readers that catch up block until more bytes
// arrive or the stream closes, so GET /v1/jobs/{id}/events behaves like
// `tail -f` on a -trace file and ends cleanly when the job does.

package xpserve

import (
	"context"
	"sync"
)

// eventBuffer is the broadcast log. It implements io.Writer for the span
// stream side.
type eventBuffer struct {
	mu     sync.Mutex
	cond   *sync.Cond
	buf    []byte
	closed bool
}

func newEventBuffer() *eventBuffer {
	b := &eventBuffer{}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Write appends (io.Writer); wakes every waiting reader.
func (b *eventBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf = append(b.buf, p...)
	b.cond.Broadcast()
	return len(p), nil
}

// close marks the stream complete and releases tailing readers. Closing
// is idempotent; writes after close are still accepted (the stream's
// final flush races the job's state flip harmlessly).
func (b *eventBuffer) close() {
	b.mu.Lock()
	b.closed = true
	b.cond.Broadcast()
	b.mu.Unlock()
}

// next returns the bytes after off, blocking until some exist, the stream
// closes (ok=false once drained), or ctx is cancelled. The returned slice
// is stable: the buffer is append-only.
func (b *eventBuffer) next(ctx context.Context, off int) (chunk []byte, ok bool) {
	// A cond has no channel to select on; a watcher goroutine converts
	// ctx cancellation into a wake-up. stop makes it exit promptly.
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			// Broadcast under the lock: the reader checks ctx.Err and
			// enters Wait while holding it, so a locked broadcast can
			// never fall into that gap and be lost.
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		case <-stop:
		}
	}()

	b.mu.Lock()
	defer b.mu.Unlock()
	for {
		if off < len(b.buf) {
			return b.buf[off:], true
		}
		if b.closed || ctx.Err() != nil {
			return nil, false
		}
		b.cond.Wait()
	}
}

// snapshot returns the bytes written so far.
func (b *eventBuffer) snapshot() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf[:len(b.buf):len(b.buf)]
}
