//! The router-level adjacency graph.
//!
//! Supports the survivability questions of Sections 5.1 and 8.1: connected
//! components, articulation routers ("scenarios where a single ... failure
//! would disconnect part of the network"), and minimum router-failure
//! counts between router groups (net5's "how many routers need to fail
//! before instance 1 is partitioned from instance 2?").

use std::collections::BTreeSet;

use crate::link::LinkMap;
use crate::network::{Network, RouterId};

/// An undirected router adjacency graph.
#[derive(Clone, Debug)]
pub struct RouterGraph {
    /// Adjacency lists indexed by router id; sorted, deduplicated.
    pub adj: Vec<Vec<usize>>,
}

impl RouterGraph {
    /// Builds the graph from inferred links.
    pub fn build(net: &Network, links: &LinkMap) -> RouterGraph {
        let mut adj = vec![Vec::new(); net.len()];
        for (a, b) in links.router_pairs() {
            adj[a.0].push(b.0);
            adj[b.0].push(a.0);
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        RouterGraph { adj }
    }

    /// Number of routers.
    pub fn len(&self) -> usize {
        self.adj.len()
    }

    /// True if there are no routers.
    pub fn is_empty(&self) -> bool {
        self.adj.is_empty()
    }

    /// Connected components after removing `failed` routers — the
    /// "what if" query of Section 8.1 (planned maintenance, failures).
    /// Failed routers appear in no component.
    pub fn components_without(&self, failed: &BTreeSet<RouterId>) -> Vec<Vec<RouterId>> {
        let mut seen = vec![false; self.len()];
        for f in failed {
            if f.0 < self.len() {
                seen[f.0] = true;
            }
        }
        let mut out = Vec::new();
        for start in 0..self.len() {
            if seen[start] {
                continue;
            }
            let mut comp = Vec::new();
            let mut stack = vec![start];
            seen[start] = true;
            while let Some(v) = stack.pop() {
                comp.push(RouterId(v));
                for &w in &self.adj[v] {
                    if !seen[w] {
                        seen[w] = true;
                        stack.push(w);
                    }
                }
            }
            comp.sort();
            out.push(comp);
        }
        out
    }

    /// Connected components, each sorted; components sorted by first id.
    pub fn components(&self) -> Vec<Vec<RouterId>> {
        self.components_without(&BTreeSet::new())
    }

    /// Articulation routers: removing any one of these disconnects its
    /// component. Classic Hopcroft–Tarjan low-link computation, iterative
    /// to survive deep topologies.
    pub fn articulation_routers(&self) -> Vec<RouterId> {
        let n = self.len();
        let mut disc = vec![usize::MAX; n];
        let mut low = vec![0usize; n];
        let mut parent = vec![usize::MAX; n];
        let mut is_art = vec![false; n];
        let mut timer = 0usize;

        for root in 0..n {
            if disc[root] != usize::MAX {
                continue;
            }
            // Iterative DFS: stack of (vertex, next child index).
            let mut stack: Vec<(usize, usize)> = vec![(root, 0)];
            disc[root] = timer;
            low[root] = timer;
            timer += 1;
            let mut root_children = 0usize;

            while let Some(&mut (v, ref mut ci)) = stack.last_mut() {
                if *ci < self.adj[v].len() {
                    let w = self.adj[v][*ci];
                    *ci += 1;
                    if disc[w] == usize::MAX {
                        parent[w] = v;
                        if v == root {
                            root_children += 1;
                        }
                        disc[w] = timer;
                        low[w] = timer;
                        timer += 1;
                        stack.push((w, 0));
                    } else if w != parent[v] {
                        low[v] = low[v].min(disc[w]);
                    }
                } else {
                    stack.pop();
                    if let Some(&(p, _)) = stack.last() {
                        low[p] = low[p].min(low[v]);
                        if p != root && low[v] >= disc[p] {
                            is_art[p] = true;
                        }
                    }
                }
            }
            if root_children > 1 {
                is_art[root] = true;
            }
        }

        (0..n).filter(|&v| is_art[v]).map(RouterId).collect()
    }

    /// Minimum number of routers (outside `sources` and `sinks`) whose
    /// removal disconnects every `sources` router from every `sinks`
    /// router — a vertex min-cut via Even's vertex-splitting max-flow.
    ///
    /// Answers net5-style questions: the 6 redundant redistribution
    /// routers between EIGRP instance 1 and BGP instance 4 form exactly
    /// such a cut. Returns `None` if a source is adjacent to (or equal to)
    /// a sink, making separation impossible.
    pub fn min_router_cut(
        &self,
        sources: &BTreeSet<RouterId>,
        sinks: &BTreeSet<RouterId>,
    ) -> Option<usize> {
        if sources.intersection(sinks).next().is_some() {
            return None;
        }
        let n = self.len();
        // Vertex splitting: node v -> v_in (2v), v_out (2v+1).
        // Internal capacity 1 for ordinary routers, "infinite" for
        // sources/sinks; edges have infinite capacity.
        const INF: i64 = i64::MAX / 4;
        let num = 2 * n + 2;
        let s = 2 * n;
        let t = 2 * n + 1;
        let mut flow = MaxFlow::new(num);
        for v in 0..n {
            let rid = RouterId(v);
            let cap =
                if sources.contains(&rid) || sinks.contains(&rid) { INF } else { 1 };
            flow.add_edge(2 * v, 2 * v + 1, cap);
            for &w in &self.adj[v] {
                flow.add_edge(2 * v + 1, 2 * w, INF);
            }
            if sources.contains(&rid) {
                flow.add_edge(s, 2 * v, INF);
            }
            if sinks.contains(&rid) {
                flow.add_edge(2 * v + 1, t, INF);
            }
        }
        let cut = flow.max_flow(s, t);
        if cut >= INF {
            None
        } else {
            Some(cut as usize)
        }
    }
}

/// Dinic's algorithm, small and dependency-free.
struct MaxFlow {
    graph: Vec<Vec<usize>>,
    to: Vec<usize>,
    cap: Vec<i64>,
}

impl MaxFlow {
    fn new(n: usize) -> MaxFlow {
        MaxFlow { graph: vec![Vec::new(); n], to: Vec::new(), cap: Vec::new() }
    }

    fn add_edge(&mut self, a: usize, b: usize, cap: i64) {
        self.graph[a].push(self.to.len());
        self.to.push(b);
        self.cap.push(cap);
        self.graph[b].push(self.to.len());
        self.to.push(a);
        self.cap.push(0);
    }

    fn max_flow(&mut self, s: usize, t: usize) -> i64 {
        let mut total = 0i64;
        loop {
            // BFS levels.
            let mut level = vec![usize::MAX; self.graph.len()];
            level[s] = 0;
            let mut queue = std::collections::VecDeque::from([s]);
            while let Some(v) = queue.pop_front() {
                for &e in &self.graph[v] {
                    if self.cap[e] > 0 && level[self.to[e]] == usize::MAX {
                        level[self.to[e]] = level[v] + 1;
                        queue.push_back(self.to[e]);
                    }
                }
            }
            if level[t] == usize::MAX {
                return total;
            }
            // DFS blocking flow.
            let mut iter = vec![0usize; self.graph.len()];
            loop {
                let pushed = self.dfs(s, t, i64::MAX, &level, &mut iter);
                if pushed == 0 {
                    break;
                }
                total += pushed;
            }
        }
    }

    fn dfs(&mut self, v: usize, t: usize, limit: i64, level: &[usize], iter: &mut [usize]) -> i64 {
        if v == t {
            return limit;
        }
        while iter[v] < self.graph[v].len() {
            let e = self.graph[v][iter[v]];
            let w = self.to[e];
            if self.cap[e] > 0 && level[w] == level[v] + 1 {
                let pushed = self.dfs(w, t, limit.min(self.cap[e]), level, iter);
                if pushed > 0 {
                    self.cap[e] -= pushed;
                    self.cap[e ^ 1] += pushed;
                    return pushed;
                }
            }
            iter[v] += 1;
        }
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds a graph directly from an edge list (bypassing configs).
    fn graph(n: usize, edges: &[(usize, usize)]) -> RouterGraph {
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        RouterGraph { adj }
    }

    fn set(ids: &[usize]) -> BTreeSet<RouterId> {
        ids.iter().map(|&i| RouterId(i)).collect()
    }

    #[test]
    fn what_if_removal_partitions() {
        // 0 - 1 - 2: removing router 1 splits the rest.
        let g = graph(3, &[(0, 1), (1, 2)]);
        let comps = g.components_without(&set(&[1]));
        assert_eq!(comps, vec![vec![RouterId(0)], vec![RouterId(2)]]);
        // Removing a leaf leaves one component.
        assert_eq!(g.components_without(&set(&[2])).len(), 1);
        // Removing everything leaves nothing.
        assert!(g.components_without(&set(&[0, 1, 2])).is_empty());
    }

    #[test]
    fn components_found() {
        let g = graph(5, &[(0, 1), (1, 2), (3, 4)]);
        let comps = g.components();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0], vec![RouterId(0), RouterId(1), RouterId(2)]);
        assert_eq!(comps[1], vec![RouterId(3), RouterId(4)]);
    }

    #[test]
    fn articulation_in_a_path() {
        let g = graph(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.articulation_routers(), vec![RouterId(1)]);
    }

    #[test]
    fn no_articulation_in_a_cycle() {
        let g = graph(4, &[(0, 1), (1, 2), (2, 3), (3, 0)]);
        assert!(g.articulation_routers().is_empty());
    }

    #[test]
    fn articulation_root_case() {
        // Star: center is an articulation point (root of the DFS).
        let g = graph(4, &[(0, 1), (0, 2), (0, 3)]);
        assert_eq!(g.articulation_routers(), vec![RouterId(0)]);
    }

    #[test]
    fn min_cut_single_bridge_router() {
        // 0 - 1 - 2: separating {0} from {2} requires removing router 1.
        let g = graph(3, &[(0, 1), (1, 2)]);
        assert_eq!(g.min_router_cut(&set(&[0]), &set(&[2])), Some(1));
    }

    #[test]
    fn min_cut_redundant_borders() {
        // Two disjoint 2-hop paths from 0 to 5: cut is 2, like net5's
        // redundant redistribution routers.
        let g = graph(6, &[(0, 1), (1, 5), (0, 2), (2, 5), (3, 4)]);
        assert_eq!(g.min_router_cut(&set(&[0]), &set(&[5])), Some(2));
    }

    #[test]
    fn min_cut_adjacent_endpoints_impossible() {
        let g = graph(2, &[(0, 1)]);
        assert_eq!(g.min_router_cut(&set(&[0]), &set(&[1])), None);
        assert_eq!(g.min_router_cut(&set(&[0]), &set(&[0])), None);
    }

    #[test]
    fn min_cut_disconnected_is_zero() {
        let g = graph(4, &[(0, 1), (2, 3)]);
        assert_eq!(g.min_router_cut(&set(&[0]), &set(&[2])), Some(0));
    }

    #[test]
    fn six_redundant_redistributors_like_net5() {
        // 1 hub side, 6 parallel middle routers, 1 far side.
        let mut edges = Vec::new();
        for m in 1..=6 {
            edges.push((0, m));
            edges.push((m, 7));
        }
        let g = graph(8, &edges);
        assert_eq!(g.min_router_cut(&set(&[0]), &set(&[7])), Some(6));
        assert!(g.articulation_routers().is_empty());
    }
}
