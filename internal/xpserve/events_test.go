// The event stream under contention: many concurrent appenders, a slow
// tailing reader, and a fast one — every byte written must reach every
// reader exactly once, in one consistent order, with per-writer line
// order preserved. Run with -race this doubles as the data-race proof for
// the tailing path.

package xpserve

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestEventBufferConcurrentTail: 8 writers append tagged, sequenced lines
// while two readers tail — one consuming promptly, one sleeping between
// reads so the buffer grows far ahead of it. Both must observe the exact
// final byte stream: no lost lines, no duplicates, no interleaving inside
// a line, and each writer's sequence numbers strictly increasing.
func TestEventBufferConcurrentTail(t *testing.T) {
	const writers, linesPer = 8, 200
	buf := newEventBuffer()

	tail := func(slow bool) <-chan []byte {
		out := make(chan []byte, 1)
		go func() {
			var got []byte
			off := 0
			for {
				chunk, ok := buf.next(context.Background(), off)
				if !ok {
					out <- got
					return
				}
				got = append(got, chunk...)
				off += len(chunk)
				if slow {
					time.Sleep(time.Millisecond)
				}
			}
		}()
		return out
	}
	fast := tail(false)
	slow := tail(true)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < linesPer; i++ {
				fmt.Fprintf(buf, "w%d seq%d\n", w, i)
			}
		}(w)
	}
	wg.Wait()
	buf.close()

	want := buf.buf // every writer is done
	if n := bytes.Count(want, []byte("\n")); n != writers*linesPer {
		t.Fatalf("buffer holds %d lines, want %d", n, writers*linesPer)
	}
	for name, ch := range map[string]<-chan []byte{"fast": fast, "slow": slow} {
		select {
		case got := <-ch:
			if !bytes.Equal(got, want) {
				t.Errorf("%s reader saw %d bytes, want %d (content diverged: %v)",
					name, len(got), len(want), !bytes.Equal(got, want))
			}
		case <-time.After(30 * time.Second):
			t.Fatalf("%s reader never finished", name)
		}
	}

	// Per-writer sequence order survives the interleaving.
	next := make([]int, writers)
	for _, line := range strings.Split(strings.TrimRight(string(want), "\n"), "\n") {
		var w, seq int
		if _, err := fmt.Sscanf(line, "w%d seq%d", &w, &seq); err != nil {
			t.Fatalf("malformed line %q: %v", line, err)
		}
		if seq != next[w] {
			t.Fatalf("writer %d emitted seq %d after %d", w, seq, next[w]-1)
		}
		next[w]++
	}
	for w, n := range next {
		if n != linesPer {
			t.Errorf("writer %d: %d lines survived, want %d", w, n, linesPer)
		}
	}
}

// TestEventBufferReaderCancel: a tailing reader blocked on a quiet stream
// unblocks promptly when its context is cancelled, while writers keep
// appending for other readers.
func TestEventBufferReaderCancel(t *testing.T) {
	buf := newEventBuffer()
	buf.Write([]byte("head\n"))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan bool, 1)
	go func() {
		// First read returns the head; the second blocks until cancel.
		chunk, ok := buf.next(ctx, 0)
		if !ok || string(chunk) != "head\n" {
			done <- false
			return
		}
		_, ok = buf.next(ctx, len(chunk))
		done <- ok
	}()
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case ok := <-done:
		if ok {
			t.Error("cancelled read reported ok=true")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled reader stayed blocked")
	}

	// The stream itself is unaffected: new writes still land and a fresh
	// reader drains everything after close.
	for i := 0; i < 10; i++ {
		buf.Write([]byte("tail" + strconv.Itoa(i) + "\n"))
	}
	buf.close()
	var got []byte
	off := 0
	for {
		chunk, ok := buf.next(context.Background(), off)
		if !ok {
			break
		}
		got = append(got, chunk...)
		off += len(chunk)
	}
	if !bytes.Equal(got, buf.buf) {
		t.Errorf("post-cancel reader saw %d bytes, want %d", len(got), len(buf.buf))
	}
}
