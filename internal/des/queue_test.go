package des

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// drain pops q empty.
func drain(q *Queue) []Entry {
	var out []Entry
	for {
		e, ok := q.Pop()
		if !ok {
			return out
		}
		out = append(out, e)
	}
}

// stableSorted returns es stably sorted by (Key, Seq).
func stableSorted(es []Entry) []Entry {
	out := append([]Entry(nil), es...)
	sort.SliceStable(out, func(i, j int) bool { return out[i].before(&out[j]) })
	return out
}

// TestQueueSortMatchesStableSort cross-checks the bulk path: loading a
// shuffled batch (duplicate keys, negative keys, keys spanning every digit)
// and sorting it pops exactly the (Key, Seq) order, with later pushes
// interleaving correctly.
func TestQueueSortMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	keyRanges := []int64{1, 7, 300, 1 << 20, math.MaxInt64}
	var q Queue
	for round := 0; round < 50; round++ {
		q.Reset()
		span := keyRanges[round%len(keyRanges)]
		var all []Entry
		seq := uint64(0)
		for i := rng.Intn(3000); i > 0; i-- {
			k := rng.Int63n(span)
			if round%2 == 1 {
				k -= span / 2 // negative keys too
			}
			e := Entry{Key: k, Seq: seq, Actor: int32(seq)}
			seq++
			q.Load(e)
			all = append(all, e)
		}
		q.Sort()
		for i := rng.Intn(100); i > 0; i-- {
			e := Entry{Key: rng.Int63n(span), Seq: seq}
			seq++
			q.Push(e)
			all = append(all, e)
		}
		got := drain(&q)
		want := stableSorted(all)
		if len(got) != len(want) {
			t.Fatalf("round %d: popped %d, want %d", round, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("round %d: pop %d = %+v, want %+v", round, i, got[i], want[i])
			}
		}
	}
}

// TestQueueSortAfterConsumedHead sorts a batch loaded behind a partly
// consumed far band: only the unconsumed run is sorted.
func TestQueueSortAfterConsumedHead(t *testing.T) {
	var q Queue
	q.Push(Entry{Key: 1, Seq: 0})
	q.Push(Entry{Key: 2, Seq: 1})
	if e, _ := q.Pop(); e.Key != 1 {
		t.Fatalf("first pop key %d, want 1", e.Key)
	}
	for i, k := range []int64{9, 4, 300, 4, 70000} {
		q.Load(Entry{Key: k, Seq: uint64(2 + i)})
	}
	q.Sort()
	var keys []int64
	for _, e := range drain(&q) {
		keys = append(keys, e.Key)
	}
	want := []int64{2, 4, 4, 9, 300, 70000}
	for i := range want {
		if i >= len(keys) || keys[i] != want[i] {
			t.Fatalf("pop keys %v, want %v", keys, want)
		}
	}
}

func TestQueueSortWithNearEntriesPanics(t *testing.T) {
	var q Queue
	q.Push(Entry{Key: 5, Seq: 0})
	q.Push(Entry{Key: 1, Seq: 1}) // before the far tail: near heap
	q.Load(Entry{Key: 3, Seq: 2})
	defer func() {
		if recover() == nil {
			t.Fatal("Sort with a non-empty near heap did not panic")
		}
	}()
	q.Sort()
}

// TestQueueSortReusesStorage pins the recycled-queue contract: once warmed
// up, a load-sort-drain cycle allocates nothing — the radix scratch is the
// near heap's own storage.
func TestQueueSortReusesStorage(t *testing.T) {
	var q Queue
	cycle := func() {
		q.Reset()
		for i := 0; i < 512; i++ {
			q.Load(Entry{Key: int64((i * 7919) % 4093), Seq: uint64(i)})
		}
		q.Sort()
		for {
			if _, ok := q.Pop(); !ok {
				break
			}
		}
	}
	cycle()
	if allocs := testing.AllocsPerRun(20, cycle); allocs != 0 {
		t.Fatalf("load-sort-drain cycle allocated %v, want 0", allocs)
	}
}
