//! Islands (ISL): the disconnected sub-graphs of a graph.
//!
//! A tiny generic capability (56 LoC in the paper) used over both the call
//! graph and dependence graphs — e.g. the Time-Squeezer custom tool uses
//! islands of compare-instruction dependences, and DEAD uses call-graph
//! islands.

use std::collections::BTreeSet;

/// Partition `nodes` into connected components of the *undirected* view of
/// `edges`. Nodes not mentioned by any edge form singleton islands. The
/// islands are ordered by their smallest node.
pub fn islands_of<N: Copy + Ord>(nodes: &[N], edges: &[(N, N)]) -> Vec<BTreeSet<N>> {
    let mut sorted = nodes.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut island = Vec::new();
    let mut out = vec![BTreeSet::new(); islands_in(&sorted, edges, &mut island)];
    for (&n, &i) in sorted.iter().zip(&island) {
        out[i].insert(n);
    }
    out
}

/// The islands of `nodes` (ascending, none twice) under the undirected
/// `edges`, into `island`, which a caller that partitions many graphs
/// keeps: each node's island, numbered in the order of the islands'
/// smallest nodes. Edges naming a node not in `nodes` are skipped. Returns
/// how many islands there are.
pub fn islands_in<N: Ord>(nodes: &[N], edges: &[(N, N)], island: &mut Vec<usize>) -> usize {
    // Union-find over node positions, each root its island's first node.
    fn find(parent: &mut [usize], mut x: usize) -> usize {
        while parent[x] != x {
            parent[x] = parent[parent[x]];
            x = parent[x];
        }
        x
    }
    island.clear();
    island.extend(0..nodes.len());
    for (a, b) in edges {
        let (Ok(ia), Ok(ib)) = (nodes.binary_search(a), nodes.binary_search(b)) else {
            continue;
        };
        let (ra, rb) = (find(island, ia), find(island, ib));
        island[ra.max(rb)] = ra.min(rb);
    }
    for i in 0..nodes.len() {
        island[i] = find(island, i);
    }
    // A root comes first in its island, so numbering each root as it is
    // met numbers the islands by their smallest nodes, and every other
    // node reads its root's number, set before it.
    let mut n = 0;
    for i in 0..nodes.len() {
        let r = island[i];
        island[i] = if r == i { n } else { island[r] };
        n += usize::from(r == i);
    }
    n
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splits_disconnected_components() {
        let nodes = [1u32, 2, 3, 4, 5];
        let edges = [(1, 2), (2, 3), (4, 5)];
        let islands = islands_of(&nodes, &edges);
        assert_eq!(islands.len(), 2);
        assert_eq!(islands[0], BTreeSet::from([1, 2, 3]));
        assert_eq!(islands[1], BTreeSet::from([4, 5]));
    }

    #[test]
    fn isolated_nodes_are_singletons() {
        let nodes = [1u32, 2, 3];
        let islands = islands_of(&nodes, &[]);
        assert_eq!(islands.len(), 3);
    }

    #[test]
    fn direction_is_ignored() {
        let nodes = [1u32, 2, 3];
        let islands = islands_of(&nodes, &[(3, 1), (1, 3), (2, 3)]);
        assert_eq!(islands.len(), 1);
    }

    /// Seeded random graphs against a flood fill over the undirected
    /// edges, one buffer for all of them.
    #[test]
    fn islands_in_a_buffer_are_the_connected_components() {
        let mut island = Vec::new();
        let mut state = 7u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        for round in 0..400 {
            let width = 1 + next(24) as usize;
            let mut nodes: Vec<usize> = (0..width).map(|_| next(40) as usize).collect();
            nodes.sort_unstable();
            nodes.dedup();
            let edges: Vec<(usize, usize)> = (0..next(12))
                .map(|_| (next(44) as usize, next(44) as usize))
                .collect();
            let n = islands_in(&nodes, &edges, &mut island);
            // Flood fill from each node not yet reached, in node order.
            let mut expected: Vec<usize> = vec![usize::MAX; nodes.len()];
            let mut k = 0;
            for start in 0..nodes.len() {
                if expected[start] != usize::MAX {
                    continue;
                }
                let mut work = vec![nodes[start]];
                while let Some(v) = work.pop() {
                    let Ok(at) = nodes.binary_search(&v) else {
                        continue;
                    };
                    if expected[at] != usize::MAX {
                        continue;
                    }
                    expected[at] = k;
                    for &(a, b) in &edges {
                        if a == v {
                            work.push(b);
                        }
                        if b == v {
                            work.push(a);
                        }
                    }
                }
                k += 1;
            }
            assert_eq!(
                (n, &island),
                (k, &expected),
                "round {round}: {nodes:?} {edges:?}"
            );
        }
    }

    #[test]
    fn edges_to_unknown_nodes_are_skipped() {
        let nodes = [1u32, 2];
        let islands = islands_of(&nodes, &[(1, 99), (2, 98)]);
        assert_eq!(islands.len(), 2);
    }
}
