package cluster

import (
	"hash/fnv"
	"sort"

	"prestolite/internal/connector"
)

// Soft-affinity split scheduling (§VII, RaptorX techniques): every split has
// a stable preference order over workers, computed by rendezvous hashing of
// (split description, worker address). The same split keeps landing on the
// same worker as long as that worker is alive and below the load cap, which
// is what makes the worker-local chunk and fragment-result caches pay off —
// a repeated dashboard query re-reads data that is already hot on exactly
// the workers that cached it. Affinity is *soft*: a full or missing worker
// degrades to the next in the preference order, never to a scheduling
// failure, and the reschedule machinery in retry.go still moves tasks off
// workers that die mid-query.

// loadCap bounds how many splits one worker may take: its fair share plus
// one. Affinity therefore never concentrates a stage onto a strict subset of
// the cluster beyond a one-split imbalance — placement prefers the hashed
// worker but the stage still parallelizes.
func loadCap(splits, workers int) int {
	if workers <= 0 {
		return splits
	}
	return (splits+workers-1)/workers + 1
}

// affinityScore ranks one (split, worker) pair. fnv64a over the split
// description and the worker address is stable across queries and across
// coordinator restarts — no state to rebuild, which is the point of
// rendezvous hashing over a stateful assignment table.
func affinityScore(desc, addr string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(desc))
	h.Write([]byte{0})
	h.Write([]byte(addr))
	return h.Sum64()
}

// rankWorkers returns worker indexes in descending score order for one
// split; ties break on address so the order is total and deterministic.
func rankWorkers(desc string, workers []*workerClient) []int {
	ranked := make([]int, len(workers))
	for i := range ranked {
		ranked[i] = i
	}
	sort.Slice(ranked, func(a, b int) bool {
		sa, sb := affinityScore(desc, workers[ranked[a]].addr), affinityScore(desc, workers[ranked[b]].addr)
		if sa != sb {
			return sa > sb
		}
		return workers[ranked[a]].addr < workers[ranked[b]].addr
	})
	return ranked
}

// assignSplits distributes splits over workers: each split goes to its
// top-ranked worker, overflowing down the preference order when the target
// is at the load cap; placed/overflow report how many splits landed on
// their first choice versus degraded (the coordinator counts both).
func assignSplits(splits []connector.Split, workers []*workerClient) (assignment [][]connector.Split, placed, overflow int) {
	assignment = make([][]connector.Split, len(workers))
	if len(workers) == 0 {
		return assignment, 0, 0
	}
	capPer := loadCap(len(splits), len(workers))
	for _, s := range splits {
		ranked := rankWorkers(s.Description(), workers)
		target := -1
		for pos, wi := range ranked {
			if len(assignment[wi]) < capPer {
				target = wi
				if pos == 0 {
					placed++
				} else {
					overflow++
				}
				break
			}
		}
		if target < 0 {
			// Unreachable while capPer*len(workers) > len(splits), but a
			// least-loaded fallback beats a panic if the cap math changes.
			target = 0
			for wi := range assignment {
				if len(assignment[wi]) < len(assignment[target]) {
					target = wi
				}
			}
			overflow++
		}
		assignment[target] = append(assignment[target], s)
	}
	return assignment, placed, overflow
}
