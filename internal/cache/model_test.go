package cache

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"prestolite/internal/fault"
)

// model is the naive reference the LRU is checked against: a group of
// recency-ordered slices (index 0 = most recent) sharing one byte budget,
// with the eviction rule spelled out longhand.
type model[K comparable, V any] struct {
	capacity int
	ttl      time.Duration
	maxBytes int64
	clock    fault.Clock
	lists    [][]modelEntry[K, V]

	bytes, hits, misses, evictions int64
}

type modelEntry[K comparable, V any] struct {
	key     K
	value   V
	size    int64
	expires time.Time
}

func (m *model[K, V]) find(l int, key K) int {
	for i, e := range m.lists[l] {
		if e.key == key {
			return i
		}
	}
	return -1
}

func (m *model[K, V]) remove(l, i int) {
	m.bytes -= m.lists[l][i].size
	m.lists[l] = append(m.lists[l][:i:i], m.lists[l][i+1:]...)
}

func (m *model[K, V]) get(l int, key K) (V, bool) {
	var zero V
	i := m.find(l, key)
	if i < 0 {
		m.misses++
		return zero, false
	}
	e := m.lists[l][i]
	if m.ttl > 0 && m.clock.Now().After(e.expires) {
		m.remove(l, i)
		m.misses++
		return zero, false
	}
	m.remove(l, i)
	m.bytes += e.size
	m.lists[l] = append([]modelEntry[K, V]{e}, m.lists[l]...)
	m.hits++
	return e.value, true
}

func (m *model[K, V]) put(l int, key K, value V, size int64) {
	if i := m.find(l, key); i >= 0 {
		m.remove(l, i)
	}
	e := modelEntry[K, V]{key: key, value: value, size: size, expires: m.clock.Now().Add(m.ttl)}
	m.lists[l] = append([]modelEntry[K, V]{e}, m.lists[l]...)
	m.bytes += size
	for len(m.lists[l]) > m.capacity || (m.maxBytes > 0 && m.bytes > m.maxBytes && len(m.lists[l]) > 1) {
		m.remove(l, len(m.lists[l])-1)
		m.evictions++
	}
}

// check compares the counters every LRU of the group shares with the model's.
func (m *model[K, V]) check(t *testing.T, step int, got *Metrics) {
	t.Helper()
	if got.Bytes.Load() < 0 {
		t.Fatalf("step %d: negative resident bytes %d", step, got.Bytes.Load())
	}
	have := [4]int64{got.Hits.Load(), got.Misses.Load(), got.Evictions.Load(), got.Bytes.Load()}
	want := [4]int64{m.hits, m.misses, m.evictions, m.bytes}
	if have != want {
		t.Fatalf("step %d: hits/misses/evictions/bytes = %v, model says %v", step, have, want)
	}
}

// TestLRUMatchesModel drives seeded random Get/Put/clock-advance
// sequences through two LRUs sharing one byte budget (as the chunk-cache
// shards do) and through the reference model, asserting after every step that
// results, lengths and counters agree, that neither LRU exceeds its count cap,
// and that the shared budget holds whenever the inserting LRU had anything
// older left to evict.
func TestLRUMatchesModel(t *testing.T) {
	const (
		capacity = 6
		budget   = 200
		ttl      = time.Minute
		keys     = 12
		steps    = 4000
	)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clk := fault.NewManualClock(time.Unix(1000, 0))
		shared := NewBudget(budget)
		lrus := []*LRU[int, int]{
			NewSizedLRU[int, int](capacity, ttl, shared),
			NewSizedLRU[int, int](capacity, ttl, shared),
		}
		for _, c := range lrus {
			c.SetClock(clk)
		}
		m := &model[int, int]{capacity: capacity, ttl: ttl, maxBytes: budget, clock: clk, lists: make([][]modelEntry[int, int], len(lrus))}

		for step := 0; step < steps; step++ {
			l, key := rng.Intn(len(lrus)), rng.Intn(keys)
			switch op := rng.Intn(20); {
			case op < 8:
				got, ok := lrus[l].Get(key)
				want, wantOK := m.get(l, key)
				if got != want || ok != wantOK {
					t.Fatalf("seed %d step %d: Get(%d) = %d, %v; model says %d, %v", seed, step, key, got, ok, want, wantOK)
				}
			case op < 18:
				size := int64(rng.Intn(90)) // a few of these alone approach the budget
				lrus[l].PutSized(key, step, size)
				m.put(l, key, step, size)
				if n := lrus[l].Len(); n > 1 && shared.Bytes.Load() > budget {
					t.Fatalf("seed %d step %d: %d resident bytes over budget %d with %d entries left to evict", seed, step, shared.Bytes.Load(), budget, n)
				}
			default:
				clk.Advance(time.Duration(rng.Intn(40)) * time.Second)
			}
			for i, c := range lrus {
				if n := c.Len(); n != len(m.lists[i]) || n > capacity {
					t.Fatalf("seed %d step %d: lru %d holds %d entries, model says %d (cap %d)", seed, step, i, n, len(m.lists[i]), capacity)
				}
			}
			m.check(t, step, shared)
		}
	}
}

// TestChunkCacheMatchesModel pins the chunk cache's observable policy: 16
// shards picked by the key hash, bodies above a sixteenth of the budget
// bypassed and counted, eviction from the inserting shard while the shared
// total is over budget. The working set is several times the budget, so
// most Puts evict; files come in two stamps, as rewritten files do, and a
// stamp's chunks are never served for the other's.
func TestChunkCacheMatchesModel(t *testing.T) {
	const (
		budget = 16 * 1024
		steps  = 6000
	)
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cc := NewChunkCache[[]byte](budget)
		m := &model[ChunkKey, []byte]{capacity: math.MaxInt, maxBytes: budget, clock: fault.RealClock{}, lists: make([][]modelEntry[ChunkKey, []byte], chunkShards)}
		shardOf := func(k ChunkKey) int {
			for i, s := range cc.shards {
				if s == cc.shard(k) {
					return i
				}
			}
			t.Fatalf("key %+v maps to no shard", k)
			return -1
		}
		var bypasses int64

		for step := 0; step < steps; step++ {
			k := ChunkKey{
				Path:     fmt.Sprintf("/warehouse/t%d/part-%d.parquet", rng.Intn(2), rng.Intn(6)),
				Stamp:    int64(rng.Intn(2)),
				Column:   fmt.Sprintf("c%d", rng.Intn(4)),
				RowGroup: rng.Intn(3),
				Dict:     rng.Intn(4) == 0,
			}
			if rng.Intn(20) < 9 {
				got, ok := cc.Get(k)
				want, wantOK := m.get(shardOf(k), k)
				if ok != wantOK || len(got) != len(want) || (len(got) > 0 && &got[0] != &want[0]) {
					t.Fatalf("seed %d step %d: Get(%+v) = %d bytes, %v; model says %d bytes, %v", seed, step, k, len(got), ok, len(want), wantOK)
				}
			} else {
				body := make([]byte, rng.Intn(budget/chunkShards+200)) // the top ~200 sizes bypass
				cc.Put(k, body, int64(len(body)))
				if len(body) > budget/chunkShards {
					bypasses++
				} else {
					m.put(shardOf(k), k, body, int64(len(body)))
				}
			}
			entries := 0
			for _, l := range m.lists {
				entries += len(l)
			}
			if cc.Len() != entries || cc.Metrics.Bypasses.Load() != bypasses {
				t.Fatalf("seed %d step %d: len %d bypasses %d, model says %d and %d", seed, step, cc.Len(), cc.Metrics.Bypasses.Load(), entries, bypasses)
			}
			m.check(t, step, &cc.Metrics)
		}
		if cc.Metrics.Evictions.Load() == 0 || bypasses == 0 {
			t.Errorf("seed %d: %d evictions, %d bypasses — the run exercised neither", seed, cc.Metrics.Evictions.Load(), bypasses)
		}
	}
}
