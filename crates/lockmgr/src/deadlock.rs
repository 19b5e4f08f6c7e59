//! Waits-for-graph cycle detection.
//!
//! The server invokes this after replicating client-side lock conflicts
//! (the "callback-blocked" machinery of paper §4.2.1), at which point a
//! distributed deadlock involving data owned by this server appears as a
//! local cycle. Strongly connected components with more than one node (or
//! a self-loop) are deadlocks.

use pscc_common::hash::HashMap;
use pscc_common::TxnId;

/// Finds the deadlock cycles in a waits-for edge list.
///
/// Returns one entry per strongly connected component that contains a
/// cycle; each entry lists the member transactions. The caller picks a
/// victim (the engine aborts the youngest member).
///
/// # Examples
///
/// ```
/// # use pscc_common::{SiteId, TxnId};
/// # use pscc_lockmgr::detect_cycles;
/// let t = |n| TxnId::new(SiteId(0), n);
/// let cycles = detect_cycles(&[(t(1), t(2)), (t(2), t(1)), (t(3), t(1))]);
/// assert_eq!(cycles.len(), 1);
/// assert_eq!(cycles[0].len(), 2);
/// ```
pub fn detect_cycles(edges: &[(TxnId, TxnId)]) -> Vec<Vec<TxnId>> {
    let mut adj: HashMap<TxnId, Vec<TxnId>> = HashMap::default();
    let mut self_loop: Vec<TxnId> = Vec::new();
    for &(a, b) in edges {
        if a == b {
            self_loop.push(a);
            continue;
        }
        adj.entry(a).or_default().push(b);
        adj.entry(b).or_default();
    }

    // Iterative Tarjan SCC.
    #[derive(Default, Clone)]
    struct NodeState {
        index: Option<u32>,
        lowlink: u32,
        on_stack: bool,
    }
    let mut state: HashMap<TxnId, NodeState> = HashMap::default();
    let mut stack: Vec<TxnId> = Vec::new();
    let mut next_index: u32 = 0;
    let mut sccs: Vec<Vec<TxnId>> = Vec::new();

    let nodes: Vec<TxnId> = adj.keys().copied().collect();
    for start in nodes {
        if state.get(&start).and_then(|s| s.index).is_some() {
            continue;
        }
        // Explicit DFS stack: (node, next child index).
        let mut dfs: Vec<(TxnId, usize)> = vec![(start, 0)];
        while let Some(&(v, child)) = dfs.last() {
            if child == 0 {
                let st = state.entry(v).or_default();
                if st.index.is_none() {
                    st.index = Some(next_index);
                    st.lowlink = next_index;
                    st.on_stack = true;
                    next_index += 1;
                    stack.push(v);
                }
            }
            let next_child = adj.get(&v).and_then(|ch| ch.get(child)).copied();
            if let Some(w) = next_child {
                dfs.last_mut().expect("nonempty").1 += 1;
                let wstate = state.entry(w).or_default().clone();
                match wstate.index {
                    None => dfs.push((w, 0)),
                    Some(wi) if wstate.on_stack => {
                        let sv = state.get_mut(&v).expect("visited");
                        sv.lowlink = sv.lowlink.min(wi);
                    }
                    Some(_) => {}
                }
            } else {
                dfs.pop();
                let (v_low, v_idx) = {
                    let sv = &state[&v];
                    (sv.lowlink, sv.index.expect("visited"))
                };
                if let Some(&(p, _)) = dfs.last() {
                    let sp = state.get_mut(&p).expect("parent visited");
                    sp.lowlink = sp.lowlink.min(v_low);
                }
                if v_low == v_idx {
                    let mut comp = Vec::new();
                    while let Some(w) = stack.pop() {
                        state.get_mut(&w).expect("on stack").on_stack = false;
                        comp.push(w);
                        if w == v {
                            break;
                        }
                    }
                    if comp.len() > 1 {
                        comp.sort();
                        sccs.push(comp);
                    }
                }
            }
        }
    }

    for t in self_loop {
        if !sccs.iter().any(|c| c.contains(&t)) {
            sccs.push(vec![t]);
        }
    }
    // The search starts from the nodes in hash order; the caller aborts
    // one victim per cycle in the order returned.
    sccs.sort();
    sccs
}

#[cfg(test)]
mod tests {
    use super::*;
    use pscc_common::SiteId;

    fn t(n: u64) -> TxnId {
        TxnId::new(SiteId(0), n)
    }

    #[test]
    fn no_edges_no_cycles() {
        assert!(detect_cycles(&[]).is_empty());
    }

    #[test]
    fn chain_is_acyclic() {
        assert!(detect_cycles(&[(t(1), t(2)), (t(2), t(3)), (t(3), t(4))]).is_empty());
    }

    #[test]
    fn two_cycle() {
        let c = detect_cycles(&[(t(1), t(2)), (t(2), t(1))]);
        assert_eq!(c, vec![vec![t(1), t(2)]]);
    }

    #[test]
    fn three_cycle_with_tail() {
        let c = detect_cycles(&[
            (t(1), t(2)),
            (t(2), t(3)),
            (t(3), t(1)),
            (t(9), t(1)), // tail into the cycle
        ]);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0], vec![t(1), t(2), t(3)]);
    }

    #[test]
    fn two_disjoint_cycles() {
        let edges = [(t(5), t(6)), (t(6), t(5)), (t(1), t(2)), (t(2), t(1))];
        for seed in 0..=3 {
            let c = pscc_common::hash::with_hash_seed(seed, || detect_cycles(&edges));
            assert_eq!(c, vec![vec![t(1), t(2)], vec![t(5), t(6)]]);
        }
    }

    #[test]
    fn self_loop_counts() {
        let c = detect_cycles(&[(t(4), t(4))]);
        assert_eq!(c, vec![vec![t(4)]]);
    }

    #[test]
    fn dense_graph_terminates() {
        // Complete digraph on 12 nodes = one big SCC.
        let mut edges = Vec::new();
        for a in 0..12u64 {
            for b in 0..12u64 {
                if a != b {
                    edges.push((t(a), t(b)));
                }
            }
        }
        let c = detect_cycles(&edges);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0].len(), 12);
    }
}
