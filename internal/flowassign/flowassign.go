// Package flowassign implements participating-subscription selection
// (paper §4.1, Figure 6): choosing, per query session, which subscribing
// node will serve each shard.
//
// The constraints are encoded as a flow network — SOURCE → shard vertices
// (capacity 1) → node vertices (capacity 1 per subscription edge) → SINK —
// and a max flow describes an assignment. Three refinements from the
// paper are implemented:
//
//  1. Successive rounds: node→SINK capacities start at max(S/N, 1) and
//     are incrementally raised, leaving existing flow intact, until the
//     flow reaches the shard count. This yields an assignment with
//     minimal skew even when subscriptions are unbalanced.
//  2. Edge-order variation: the order in which shard→node edges are
//     created is varied by a seed, so repeated selections spread load
//     over equivalent assignments and no node is "full" serving the same
//     shards for every query.
//  3. Priorities: node→SINK edges are added tier by tier (e.g. subcluster
//     members first); lower-priority nodes join the graph only if the
//     preferred tier cannot cover all shards.
package flowassign

import (
	"fmt"
	"math/rand/v2"
	"sort"
)

// Input describes one selection problem.
type Input struct {
	// Shards are the shard indexes that must each be assigned a node.
	Shards []int
	// Nodes are the candidate node names.
	Nodes []string
	// CanServe reports whether a node holds an eligible subscription for
	// a shard.
	CanServe func(node string, shard int) bool
	// Priority maps node name to its tier; lower tiers are preferred and
	// missing entries default to tier 0.
	Priority map[string]int
	// Seed varies the edge creation order (refinement 2).
	Seed int64
}

// Assign selects a serving node for every shard. It returns an error if
// some shard has no eligible node in any tier.
func Assign(in Input) (map[int]string, error) {
	s := len(in.Shards)
	n := len(in.Nodes)
	if s == 0 {
		return map[int]string{}, nil
	}
	if n == 0 {
		return nil, fmt.Errorf("flowassign: no candidate nodes for %d shards", s)
	}

	// Vertex numbering: 0 = source, 1..s = shards, s+1..s+n = nodes,
	// s+n+1 = sink.
	source := 0
	sink := s + n + 1
	g := newGraph(sink + 1)

	// PCG, because Assign runs once per query: seeding math/rand's
	// 607-word source costs more than the rest of a small assignment.
	rng := rand.New(rand.NewPCG(uint64(in.Seed), 0))

	for i := range in.Shards {
		g.addEdge(source, 1+i, 1)
	}

	// Shard→node edges in seed-varied order.
	type pair struct{ si, ni int }
	var pairs []pair
	for si, shard := range in.Shards {
		for ni, node := range in.Nodes {
			if in.CanServe(node, shard) {
				pairs = append(pairs, pair{si, ni})
			}
		}
	}
	rng.Shuffle(len(pairs), func(i, j int) { pairs[i], pairs[j] = pairs[j], pairs[i] })
	for _, p := range pairs {
		g.addEdge(1+p.si, s+1+p.ni, 1)
	}

	// Group nodes into priority tiers.
	tierOf := func(node string) int {
		if in.Priority == nil {
			return 0
		}
		return in.Priority[node]
	}
	tiers := map[int][]int{} // tier -> node indexes
	var tierKeys []int
	for ni, node := range in.Nodes {
		tr := tierOf(node)
		if _, ok := tiers[tr]; !ok {
			tierKeys = append(tierKeys, tr)
		}
		tiers[tr] = append(tiers[tr], ni)
	}
	sort.Ints(tierKeys)

	baseCap := s / n
	if baseCap < 1 {
		baseCap = 1
	}

	flow := 0
	sinkEdge := map[int]int{} // node index -> edge id of its node→SINK edge
	for _, tr := range tierKeys {
		// Add this tier's node→SINK edges (refinement 3).
		for _, ni := range tiers[tr] {
			sinkEdge[ni] = g.addEdge(s+1+ni, sink, baseCap)
		}
		flow += g.maxflow(source, sink)
		// Successive capacity rounds within the available tiers
		// (refinement 1). Each round raises every present node's sink
		// capacity by one and pushes any newly-possible flow.
		for round := 0; flow < s && round < s; round++ {
			for ni := range sinkEdge {
				g.edges[sinkEdge[ni]].cap++
			}
			add := g.maxflow(source, sink)
			if add == 0 {
				break
			}
			flow += add
		}
		if flow == s {
			break
		}
	}
	if flow < s {
		// Identify an uncovered shard for the error message.
		for si, shard := range in.Shards {
			if !g.shardAssigned(1+si, s, n) {
				return nil, fmt.Errorf("flowassign: shard %d has no available subscriber", shard)
			}
		}
		return nil, fmt.Errorf("flowassign: incomplete assignment (%d of %d shards)", flow, s)
	}

	out := make(map[int]string, s)
	for si, shard := range in.Shards {
		ni, ok := g.assignedNode(1+si, s, n)
		if !ok {
			return nil, fmt.Errorf("flowassign: internal: shard %d unassigned despite full flow", shard)
		}
		out[shard] = in.Nodes[ni]
	}
	return out, nil
}

// edge is one directed edge with a paired reverse edge at id^1.
type edge struct {
	to   int
	cap  int
	flow int
}

// graph is a Dinic's-algorithm max-flow network.
type graph struct {
	edges []edge
	adj   [][]int
	level []int
	iter  []int
}

func newGraph(n int) *graph {
	return &graph{adj: make([][]int, n), level: make([]int, n), iter: make([]int, n)}
}

// addEdge inserts a forward edge (returning its id) and its reverse.
func (g *graph) addEdge(from, to, capacity int) int {
	id := len(g.edges)
	g.edges = append(g.edges, edge{to: to, cap: capacity})
	g.adj[from] = append(g.adj[from], id)
	g.edges = append(g.edges, edge{to: from, cap: 0})
	g.adj[to] = append(g.adj[to], id+1)
	return id
}

func (g *graph) bfs(s, t int) bool {
	for i := range g.level {
		g.level[i] = -1
	}
	queue := []int{s}
	g.level[s] = 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, id := range g.adj[v] {
			e := &g.edges[id]
			if e.cap-e.flow > 0 && g.level[e.to] < 0 {
				g.level[e.to] = g.level[v] + 1
				queue = append(queue, e.to)
			}
		}
	}
	return g.level[t] >= 0
}

func (g *graph) dfs(v, t, f int) int {
	if v == t {
		return f
	}
	for ; g.iter[v] < len(g.adj[v]); g.iter[v]++ {
		id := g.adj[v][g.iter[v]]
		e := &g.edges[id]
		if e.cap-e.flow <= 0 || g.level[e.to] != g.level[v]+1 {
			continue
		}
		d := g.dfs(e.to, t, min(f, e.cap-e.flow))
		if d > 0 {
			e.flow += d
			g.edges[id^1].flow -= d
			return d
		}
	}
	return 0
}

// maxflow pushes as much additional flow as possible from s to t,
// preserving existing flow, and returns the increment.
func (g *graph) maxflow(s, t int) int {
	total := 0
	for g.bfs(s, t) {
		for i := range g.iter {
			g.iter[i] = 0
		}
		for {
			f := g.dfs(s, t, 1<<30)
			if f == 0 {
				break
			}
			total += f
		}
	}
	return total
}

// assignedNode returns the node index receiving flow from shard vertex sv.
func (g *graph) assignedNode(sv, s, n int) (int, bool) {
	for _, id := range g.adj[sv] {
		e := g.edges[id]
		if e.flow > 0 && e.to >= s+1 && e.to <= s+n {
			return e.to - s - 1, true
		}
	}
	return 0, false
}

func (g *graph) shardAssigned(sv, s, n int) bool {
	_, ok := g.assignedNode(sv, s, n)
	return ok
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
