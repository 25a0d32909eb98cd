package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// shardWords picks, out of one backing array, same words that hash to a
// single shard and apart words that land in other shards, pairwise
// distinct. The words sit 64 bytes apart so they share no cache line.
func shardWords(t testing.TB, same, apart int) (colliding, spread []*Word) {
	t.Helper()
	type padded struct {
		w Word
		_ [60]byte
	}
	pool := make([]padded, 4096)
	home := futexShardOf(&pool[0].w)
	used := map[int]bool{home: true}
	for i := range pool {
		w := &pool[i].w
		switch s := futexShardOf(w); {
		case s == home && len(colliding) < same:
			colliding = append(colliding, w)
		case !used[s] && len(spread) < apart:
			used[s] = true
			spread = append(spread, w)
		}
	}
	if len(colliding) < same || len(spread) < apart {
		t.Fatalf("found %d colliding and %d spread words, want %d and %d", len(colliding), len(spread), same, apart)
	}
	return colliding, spread
}

// sleepersOn waits until n threads are enqueued on w's shard for w.
func sleepersOn(l *RealLayer, w *Word, n int) {
	s := &l.futex[futexShardOf(w)]
	for {
		s.mu.Lock()
		got := 0
		for p := s.head; p != nil; p = p.next {
			if p.w == w {
				got++
			}
		}
		s.mu.Unlock()
		if got >= n {
			return
		}
		runtime.Gosched()
	}
}

// TestFutexNoLostWakeup: 8 waiters and 4 wakers hand 20k values over 6
// words — 3 sharing one shard, 3 in shards of their own. A word is a
// one-slot mailbox: its waker sleeps until it reads 0, stores the next
// sequence number and wakes; the word's waiters race to take the number
// with a CAS back to 0 and wake in turn (the waker sleeps on the same
// word), sleeping on 0 otherwise. Every sleep is on a value its peer is
// about to change, so a wake-up lost on either side hangs the test. The
// numbers taken on each word must be exactly 1..N, ascending for each
// waiter.
func TestFutexNoLostWakeup(t *testing.T) {
	const (
		perWord = 20000/6 + 1
		closed  = ^uint32(0) // the waker's last store: waiters leave
	)
	l := NewRealLayer(4)
	colliding, spread := shardWords(t, 3, 3)
	words := append(colliding, spread...)
	taken := make([][]uint32, 8) // per waiter, in the order it took them
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		var wg sync.WaitGroup
		for k := 0; k < 8; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				tc, w := l.TC(), words[k%6]
				for {
					switch v := w.Load(); {
					case v == closed:
						return
					case v == 0:
						tc.FutexWait(w, 0)
					case w.CompareAndSwap(v, 0):
						taken[k] = append(taken[k], v)
						tc.FutexWake(w, -1)
					}
				}
			}(k)
		}
		for k := 0; k < 4; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				tc := l.TC()
				mine := []*Word{words[k]}
				if k+4 < 6 {
					mine = append(mine, words[k+4])
				}
				for seq := uint32(1); seq <= perWord+1; seq++ {
					for _, w := range mine {
						for v := w.Load(); v != 0; v = w.Load() {
							tc.FutexWait(w, v)
						}
						if seq > perWord {
							w.Store(closed)
						} else {
							w.Store(seq)
						}
						tc.FutexWake(w, -1)
					}
				}
			}(k)
		}
		wg.Wait()
	}()
	select {
	case <-finished:
	case <-time.After(2 * time.Minute):
		t.Fatal("hand-off stalled: a wake-up was lost")
	}
	for i := range words {
		seen := make([]bool, perWord+1)
		n := 0
		for k := i; k < 8; k += 6 {
			last := uint32(0)
			for _, v := range taken[k] {
				if v <= last || v > perWord || seen[v] {
					t.Fatalf("word %d waiter %d: took %d after %d (duplicate or out of order)", i, k, v, last)
				}
				seen[v], last = true, v
				n++
			}
		}
		if n != perWord {
			t.Errorf("word %d: %d values taken, want %d (gap)", i, n, perWord)
		}
	}
}

// TestFutexWakeIsPerWord: sleepers on one word are invisible to a wake
// on another word of the same shard; wake-all returns the exact count.
func TestFutexWakeIsPerWord(t *testing.T) {
	l := NewRealLayer(4)
	colliding, _ := shardWords(t, 2, 0)
	busy, idle := colliding[0], colliding[1]
	tc := l.TC()
	var woke atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 5; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.TC().FutexWait(busy, 0)
			woke.Add(1)
		}()
	}
	sleepersOn(l, busy, 5)
	if n := tc.FutexWake(idle, 1); n != 0 {
		t.Errorf("FutexWake on a word nobody sleeps on woke %d, want 0", n)
	}
	if n := tc.FutexWake(idle, -1); n != 0 {
		t.Errorf("wake-all on a word nobody sleeps on woke %d, want 0", n)
	}
	if n := woke.Load(); n != 0 {
		t.Errorf("%d sleepers of another word in the shard woke", n)
	}
	if n := tc.FutexWake(busy, 2); n != 2 {
		t.Errorf("FutexWake(busy, 2) = %d, want 2", n)
	}
	if n := tc.FutexWake(busy, -1); n != 3 {
		t.Errorf("wake-all = %d, want the 3 sleepers left", n)
	}
	wg.Wait()
	if n := tc.FutexWake(busy, -1); n != 0 {
		t.Errorf("wake on the drained word = %d, want 0", n)
	}
	if c := l.futex[futexShardOf(busy)].waiters.Load(); c != 0 {
		t.Errorf("shard waiter count = %d after everyone woke, want 0", c)
	}
}

// TestFutexWakeOrderIsFIFO: single wakes release a word's sleepers in
// the order they went to sleep, sleepers of a neighbour word in the
// shard notwithstanding.
func TestFutexWakeOrderIsFIFO(t *testing.T) {
	l := NewRealLayer(4)
	colliding, _ := shardWords(t, 2, 0)
	w, other := colliding[0], colliding[1]
	tc := l.TC()
	order := make(chan int, 6)
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(2)
		go func(i int) {
			defer wg.Done()
			l.TC().FutexWait(w, 0)
			order <- i
		}(i)
		sleepersOn(l, w, i+1)
		go func() { // interleave a sleeper of the neighbour word
			defer wg.Done()
			l.TC().FutexWait(other, 0)
		}()
		sleepersOn(l, other, i+1)
	}
	for i := 0; i < 6; i++ {
		if n := tc.FutexWake(w, 1); n != 1 {
			t.Fatalf("wake %d woke %d, want 1", i, n)
		}
		if got := <-order; got != i {
			t.Fatalf("wake %d released sleeper %d, want FIFO order", i, got)
		}
	}
	if n := tc.FutexWake(other, -1); n != 6 {
		t.Errorf("neighbour word had %d sleepers left, want 6", n)
	}
	wg.Wait()
}

// TestFutexSharedTC: komp.OMP hands one TC to every goroutine that uses
// the handle, so several of them sleep through it at once — here all
// four, every round.
func TestFutexSharedTC(t *testing.T) {
	const rounds = 300
	l := NewRealLayer(4)
	tc := l.TC()
	var words [4]Word
	var wg sync.WaitGroup
	for i := range words {
		wg.Add(1)
		go func(w *Word) {
			defer wg.Done()
			for round := uint32(0); round < rounds; round++ {
				for w.Load() == round {
					tc.FutexWait(w, round)
				}
			}
		}(&words[i])
	}
	for round := uint32(1); round <= rounds; round++ {
		for i := range words {
			sleepersOn(l, &words[i], 1)
		}
		for i := range words {
			words[i].Store(round)
			if n := tc.FutexWake(&words[i], 1); n != 1 {
				t.Fatalf("round %d word %d: woke %d, want its one sleeper", round, i, n)
			}
		}
	}
	wg.Wait()
}

// pingPonger starts the far side of a futex ping-pong, which answers
// rounds pings and exits (closing done), and returns the near side's
// round: bump ping, wake, sleep until pong follows.
func pingPonger(l *RealLayer, rounds uint32) (round func(), done <-chan struct{}) {
	var ping, pong Word
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		tc := l.TC()
		for v := uint32(0); v < rounds; v++ {
			for ping.Load() == v {
				tc.FutexWait(&ping, v)
			}
			pong.Store(v + 1)
			tc.FutexWake(&pong, 1)
		}
	}()
	tc := l.TC()
	v := uint32(0)
	return func() {
		ping.Store(v + 1)
		tc.FutexWake(&ping, 1)
		for pong.Load() == v {
			tc.FutexWait(&pong, v)
		}
		v++
	}, exited
}

// TestFutexWaitWakeZeroAlloc: a steady-state sleep and its wake allocate
// nothing — the parker is recycled, the queue is intrusive.
func TestFutexWaitWakeZeroAlloc(t *testing.T) {
	const warm, runs = 100, 1000
	round, done := pingPonger(NewRealLayer(2), warm+1+runs) // AllocsPerRun adds a warm-up call
	for i := 0; i < warm; i++ {
		round() // fill the shards' free lists
	}
	if avg := testing.AllocsPerRun(runs, round); avg != 0 {
		t.Errorf("futex ping-pong round allocated %.2f times, want 0", avg)
	}
	<-done
}

func BenchmarkFutexPingPong(b *testing.B) {
	round, done := pingPonger(NewRealLayer(2), uint32(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		round()
	}
	<-done
}

func BenchmarkFutexWakeEmpty(b *testing.B) {
	tc := NewRealLayer(2).TC()
	var idle Word
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tc.FutexWake(&idle, 1)
	}
}

// BenchmarkFutexWakeEmptyContended: every goroutine wakes a word of its
// own, one cache line each; anything the words share shows as a slowdown
// over BenchmarkFutexWakeEmpty.
func BenchmarkFutexWakeEmptyContended(b *testing.B) {
	l := NewRealLayer(runtime.GOMAXPROCS(0))
	words := make([]Word, 16*64)
	var next atomic.Int32
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		tc := l.TC()
		w := &words[(int(next.Add(1))*16)%len(words)]
		for pb.Next() {
			tc.FutexWake(w, 1)
		}
	})
}
