package core

import (
	"fmt"
	"sort"
	"sync"
)

// Fleet combines the power-throughput models of multiple, possibly
// heterogeneous devices. The paper (§3.3) observes that per-device
// models can be combined to derive the performance Pareto frontier of
// device configurations under a shared power budget — this type does
// that combination.
//
// A Fleet takes its merged frontier from a FrontierMemo. Fleets that
// share a memo and start with members of the same frontiers, in the
// same order, share the merged levels of that common prefix, so a
// shard, a compensation sub-fleet or a revisited churn composition
// reuses the merge work of every fleet planned before it. A Fleet is
// confined to one goroutine; its memo may be shared.
type Fleet struct {
	models []*Model
	memo   *FrontierMemo
	// frontier is the memo's top level for this membership, looked up
	// on the first query that needs it.
	frontier []*planNode
}

// maxFrontierPoints bounds the merged frontier carried between pairwise
// combination steps. Homogeneous fleets in the hundreds of devices grow
// frontiers quadratic in device count — millions of points that a budget
// query never distinguishes. Thinning to this many points (always
// keeping both endpoints, so the cheapest feasible plan and the peak-
// throughput plan are exact) makes the build O(devices × cap); the
// chosen plan stays within one thinning step of optimal. Small fleets
// never hit the cap, so the exhaustive property tests exercise the
// exact frontier.
const maxFrontierPoints = 1024

// NewFleet builds a fleet over the given models with a memo of its own:
// it shares no merge work with any other fleet except the sub-fleets
// built through its Memo.
func NewFleet(models ...*Model) (*Fleet, error) {
	return NewFrontierMemo().NewFleet(models...)
}

// Models returns the fleet's member models.
func (f *Fleet) Models() []*Model { return f.models }

// Memo returns the memo the fleet plans through. A sub-fleet built with
// f.Memo().NewFleet reuses every merged level its members share with f.
func (f *Fleet) Memo() *FrontierMemo { return f.memo }

// Assignment is one operating point chosen for every device.
type Assignment struct {
	// Configs maps device label to the chosen operating point.
	Configs map[string]Sample
	// TotalPowerW and TotalMBps are the fleet-wide sums.
	TotalPowerW float64
	TotalMBps   float64
}

// planNode is one point on a merged frontier level: the index of the
// level's member's Pareto point chosen, plus a parent link to the
// choices of the levels merged before it. A node names no device, so
// one immutable node set serves every fleet whose members have the same
// frontiers; materialize resolves (level, idx) against the calling
// fleet's own models. Assignments materialize into maps only when a
// query returns one — carrying maps through the merge itself cost a
// full map copy per candidate point and made large-fleet planning
// quartic.
type planNode struct {
	powerW float64
	mbps   float64
	parent *planNode
	level  int32
	idx    int32
}

// FrontierMemo memoizes the fleet-frontier merge level by level. It is
// a trie: level k holds the merged frontier of the first k+1 members
// and is keyed by the exact (power, throughput) bits of each of their
// Pareto points, in fleet order. Merging level k reads only level k-1
// and member k's points, so every fleet whose members' frontiers match
// a path from the root gets bit-identical levels without merging again.
// Levels are immutable once published, and each is merged exactly once
// however many goroutines ask for it at the same time, so a memo may be
// shared by concurrent planners.
type FrontierMemo struct {
	mu     sync.Mutex
	root   *memoLevel
	merges int
}

// memoLevel is one merged prefix: its frontier nodes (published by
// once) and the longer prefixes keyed by the next member's frontier.
type memoLevel struct {
	once  sync.Once
	nodes []*planNode
	next  map[string]*memoLevel
}

// NewFrontierMemo returns an empty memo.
func NewFrontierMemo() *FrontierMemo {
	return &FrontierMemo{root: &memoLevel{nodes: []*planNode{{}}}}
}

// NewFleet builds a fleet over the given models that plans through the
// memo.
func (mm *FrontierMemo) NewFleet(models ...*Model) (*Fleet, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("core: fleet needs at least one model")
	}
	seen := map[string]bool{}
	for _, m := range models {
		if seen[m.Device()] {
			return nil, fmt.Errorf("core: duplicate device %s in fleet", m.Device())
		}
		seen[m.Device()] = true
	}
	return &Fleet{models: models, memo: mm}, nil
}

// Merges reports how many levels the memo has merged: the number of
// distinct member-frontier prefixes planned through it.
func (mm *FrontierMemo) Merges() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.merges
}

// frontier returns the merged frontier of the models, walking the trie
// from the root and merging each level not yet present.
func (mm *FrontierMemo) frontier(models []*Model) []*planNode {
	lv := mm.root
	for i, m := range models {
		parent := lv.nodes
		lv = mm.child(lv, m.key)
		lv.once.Do(func() {
			lv.nodes = mergeLevel(parent, i, m.frontier)
			mm.mu.Lock()
			mm.merges++
			mm.mu.Unlock()
		})
	}
	return lv.nodes
}

// child returns the level extending lv by a member with the given
// frontier key, adding it (unmerged) if absent.
func (mm *FrontierMemo) child(lv *memoLevel, key string) *memoLevel {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	c := lv.next[key]
	if c == nil {
		if lv.next == nil {
			lv.next = map[string]*memoLevel{}
		}
		c = &memoLevel{}
		lv.next[key] = c
	}
	return c
}

// mergeLevel combines a merged level with the next member's Pareto
// points — one step of a pruned Minkowski sum, so the cost of a whole
// fleet is bounded by the capped frontier size times the device count,
// not by the full configuration cross-product.
func mergeLevel(acc []*planNode, level int, frontier []Sample) []*planNode {
	next := make([]*planNode, 0, len(acc)*len(frontier))
	for _, a := range acc {
		for i, s := range frontier {
			next = append(next, &planNode{
				powerW: a.powerW + s.PowerW,
				mbps:   a.mbps + s.ThroughputMBps,
				parent: a,
				level:  int32(level),
				idx:    int32(i),
			})
		}
	}
	return pruneDominated(next)
}

// build returns the fleet frontier as parent-linked nodes, from the
// memo on first use.
func (f *Fleet) build() []*planNode {
	if f.frontier == nil {
		f.frontier = f.memo.frontier(f.models)
	}
	return f.frontier
}

// materialize walks the node's parent chain into a full Assignment,
// mapping each level to the fleet's own member model.
func (f *Fleet) materialize(n *planNode) Assignment {
	a := Assignment{
		Configs:     map[string]Sample{},
		TotalPowerW: n.powerW,
		TotalMBps:   n.mbps,
	}
	for ; n.parent != nil; n = n.parent {
		m := f.models[n.level]
		a.Configs[m.Device()] = m.frontier[n.idx]
	}
	return a
}

// ParetoFrontier computes the fleet-wide Pareto frontier: assignments of
// one Pareto-optimal configuration per device such that no other
// assignment has both lower total power and higher total throughput.
func (f *Fleet) ParetoFrontier() []Assignment {
	nodes := f.build()
	out := make([]Assignment, len(nodes))
	for i, n := range nodes {
		out[i] = f.materialize(n)
	}
	return out
}

// pruneDominated keeps only points on the power-throughput Pareto
// frontier, sorted by increasing power, then thins the survivors to the
// frontier cap (endpoints always kept, interior evenly sampled).
func pruneDominated(ns []*planNode) []*planNode {
	sort.Slice(ns, func(i, j int) bool {
		if ns[i].powerW != ns[j].powerW {
			return ns[i].powerW < ns[j].powerW
		}
		return ns[i].mbps > ns[j].mbps
	})
	out := ns[:0]
	best := -1.0
	for _, n := range ns {
		if n.mbps > best {
			out = append(out, n)
			best = n.mbps
		}
	}
	if len(out) <= maxFrontierPoints {
		return out
	}
	thinned := make([]*planNode, 0, maxFrontierPoints)
	last := len(out) - 1
	for i := 0; i < maxFrontierPoints-1; i++ {
		thinned = append(thinned, out[i*last/(maxFrontierPoints-1)])
	}
	return append(thinned, out[last])
}

// BestUnderPower returns the frontier assignment with the highest total
// throughput whose total power fits the budget. ok is false when even
// the lowest-power assignment exceeds the budget.
func (f *Fleet) BestUnderPower(budgetW float64) (best Assignment, ok bool) {
	// Fast path: a budget that admits every device at its peak-throughput
	// point — the "never binds" default schedule — selects the frontier's
	// top endpoint, which is exactly the sum of per-model peaks (each
	// model's frontier strictly increases in both axes, so the all-peak
	// combination uniquely maximizes throughput, and thinning keeps
	// endpoints exact). Answering it directly skips the merged-frontier
	// build, the dominant planning cost at 10⁵-device fleet scale. The
	// sums accumulate in the same model order as the pairwise merge, so
	// the returned totals are bit-identical to the slow path's.
	if a, ok := f.peakAssignment(budgetW); ok {
		return a, true
	}
	var pick *planNode
	for _, n := range f.build() {
		if n.powerW <= budgetW {
			pick = n // frontier is sorted by power, tput increases
		} else {
			break
		}
	}
	if pick == nil {
		return Assignment{}, false
	}
	return f.materialize(pick), true
}

// peakAssignment returns every device at its peak-throughput operating
// point, or ok=false when that assignment exceeds the budget (a binding
// budget needs the real frontier).
func (f *Fleet) peakAssignment(budgetW float64) (Assignment, bool) {
	a := Assignment{Configs: make(map[string]Sample, len(f.models))}
	for _, m := range f.models {
		fr := m.frontier
		s := fr[len(fr)-1]
		a.Configs[m.Device()] = s
		a.TotalPowerW += s.PowerW
		a.TotalMBps += s.ThroughputMBps
	}
	if a.TotalPowerW > budgetW {
		return Assignment{}, false
	}
	return a, true
}

// MinPowerMeeting returns the frontier assignment with the lowest total
// power delivering at least the given total throughput.
func (f *Fleet) MinPowerMeeting(tputMBps float64) (best Assignment, ok bool) {
	for _, n := range f.build() {
		if n.mbps >= tputMBps {
			return f.materialize(n), true
		}
	}
	return Assignment{}, false
}
