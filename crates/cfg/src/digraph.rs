//! The graph algorithms every pass shares: reverse postorder,
//! Cooper–Harvey–Kennedy dominators and Tarjan's strongly connected
//! components.
//!
//! Nodes are dense `u32` indices `0..n`; the caller numbers its nodes
//! (one function's blocks, the supergraph, the call graph) and supplies
//! the successors of a node, in the order the depth-first searches must
//! visit them. Results depend only on that order. Every routine is
//! iterative (generated call chains are deep) and allocates only for the
//! nodes it is given, so a per-function pass that numbers only that
//! function's blocks never touches the rest of the program. Reverse
//! postorder and SCCs are linear in nodes plus edges; the dominator
//! iteration converges in a few such passes on reducible graphs.

const NONE: u32 = u32::MAX;

/// The nodes reachable from `entry` in reverse postorder (entry first):
/// a depth-first search that follows each node's successors in the order
/// `succs` yields them.
pub fn reverse_postorder<I: IntoIterator<Item = u32>>(
    n: usize,
    entry: u32,
    mut succs: impl FnMut(u32) -> I,
) -> Vec<u32> {
    let mut seen = vec![false; n];
    let mut post = Vec::new();
    seen[entry as usize] = true;
    let mut stack = vec![(entry, succs(entry).into_iter())];
    while let Some((u, next)) = stack.last_mut() {
        match next.find(|&v| !seen[v as usize]) {
            Some(v) => {
                seen[v as usize] = true;
                stack.push((v, succs(v).into_iter()));
            }
            None => {
                post.push(*u);
                stack.pop();
            }
        }
    }
    post.reverse();
    post
}

/// A dominator tree: node `a` dominates `b` when every path from the
/// entry to `b` passes through `a`. Nodes unreachable from the entry are
/// outside the tree.
#[derive(Clone, Debug)]
pub struct DomTree {
    /// The reachable nodes in reverse postorder.
    rpo: Vec<u32>,
    /// Immediate dominator per node (the entry maps to itself,
    /// unreachable nodes to `NONE`).
    idom: Vec<u32>,
    /// Per node: its dominator-tree preorder number and the last
    /// preorder number in its subtree (`NONE` outside the tree), so that
    /// [`DomTree::dominates`] is one interval test.
    range: Vec<(u32, u32)>,
}

impl DomTree {
    /// Computes the dominator tree of the `n`-node graph rooted at
    /// `entry` with the Cooper–Harvey–Kennedy iteration over a reverse
    /// postorder.
    pub fn new<I: IntoIterator<Item = u32>>(
        n: usize,
        entry: u32,
        mut succs: impl FnMut(u32) -> I,
    ) -> DomTree {
        let rpo = reverse_postorder(n, entry, &mut succs);
        let m = rpo.len();
        // Work in reverse-postorder numbers: every node's immediate
        // dominator then has a smaller number than the node itself.
        let mut num = vec![NONE; n];
        for (i, &u) in rpo.iter().enumerate() {
            num[u as usize] = i as u32;
        }
        let mut preds = vec![Vec::new(); m];
        for (i, &u) in rpo.iter().enumerate() {
            for v in succs(u) {
                preds[num[v as usize] as usize].push(i as u32);
            }
        }

        let mut idom = vec![NONE; m];
        idom[0] = 0;
        let mut changed = true;
        while changed {
            changed = false;
            for b in 1..m {
                let mut new_idom = NONE;
                for &p in &preds[b] {
                    if idom[p as usize] == NONE {
                        continue; // not yet processed
                    }
                    new_idom = if new_idom == NONE {
                        p
                    } else {
                        // The two-finger walk to the nearest common
                        // dominator.
                        let (mut x, mut y) = (new_idom, p);
                        while x != y {
                            while x > y {
                                x = idom[x as usize];
                            }
                            while y > x {
                                y = idom[y as usize];
                            }
                        }
                        x
                    };
                }
                if idom[b] != new_idom {
                    idom[b] = new_idom;
                    changed = true;
                }
            }
        }

        // Preorder intervals: parents precede children in reverse
        // postorder, so subtree sizes accumulate backwards and each
        // child takes the next free slot of its parent going forwards.
        let mut size = vec![1u32; m];
        for b in (1..m).rev() {
            size[idom[b] as usize] += size[b];
        }
        let mut pre = vec![0u32; m];
        let mut next_free = vec![1u32; m];
        for b in 1..m {
            let p = idom[b] as usize;
            pre[b] = next_free[p];
            next_free[p] += size[b];
            next_free[b] = pre[b] + 1;
        }
        let mut node_idom = vec![NONE; n];
        let mut range = vec![(NONE, NONE); n];
        for (b, &u) in rpo.iter().enumerate() {
            node_idom[u as usize] = rpo[idom[b] as usize];
            range[u as usize] = (pre[b], pre[b] + size[b] - 1);
        }
        DomTree { rpo, idom: node_idom, range }
    }

    /// Number of nodes of the graph, reachable or not.
    pub fn node_count(&self) -> usize {
        self.idom.len()
    }

    /// The reachable nodes in reverse postorder, entry first.
    pub fn rpo(&self) -> &[u32] {
        &self.rpo
    }

    /// The immediate dominator of `v` (`None` for the entry and for
    /// unreachable nodes).
    pub fn idom(&self, v: u32) -> Option<u32> {
        Some(self.idom[v as usize]).filter(|&d| d != NONE && d != v)
    }

    /// Returns `true` if `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: u32, b: u32) -> bool {
        let (pre_a, last_a) = self.range[a as usize];
        let pre_b = self.range[b as usize].0;
        a == b || (pre_a != NONE && pre_b != NONE && pre_a <= pre_b && pre_b <= last_a)
    }

    /// The nearest node dominating both `a` and `b` (`None` if either is
    /// unreachable).
    pub fn nearest_common_dominator(&self, mut a: u32, b: u32) -> Option<u32> {
        if self.range[a as usize].0 == NONE || self.range[b as usize].0 == NONE {
            return None;
        }
        while !self.dominates(a, b) {
            a = self.idom[a as usize];
        }
        Some(a)
    }
}

/// The strongly connected components of a graph, in the order Tarjan's
/// algorithm emits them: every edge leaving a component points to one
/// emitted earlier (callees before callers).
#[derive(Clone, Debug)]
pub struct Sccs {
    /// Members of all components, component by component, each in the
    /// order the algorithm pops them.
    members: Vec<u32>,
    /// Component `i` is `members[start[i]..start[i + 1]]`.
    start: Vec<u32>,
    /// Component index per node.
    comp: Vec<u32>,
}

impl Sccs {
    /// Tarjan's algorithm over the `n`-node graph, rooting depth-first
    /// searches at nodes `0, 1, …` in turn.
    pub fn new<I: IntoIterator<Item = u32>>(n: usize, mut succs: impl FnMut(u32) -> I) -> Sccs {
        let mut index = vec![NONE; n];
        let mut low = vec![0u32; n];
        let mut on_stack = vec![false; n];
        let mut stack: Vec<u32> = Vec::new();
        let mut next = 0u32;
        let mut out = Sccs { members: Vec::with_capacity(n), start: vec![0], comp: vec![NONE; n] };
        for root in 0..n as u32 {
            if index[root as usize] != NONE {
                continue;
            }
            let mut dfs: Vec<(u32, I::IntoIter)> = Vec::new();
            let mut enter = Some(root);
            loop {
                if let Some(v) = enter.take() {
                    index[v as usize] = next;
                    low[v as usize] = next;
                    next += 1;
                    stack.push(v);
                    on_stack[v as usize] = true;
                    dfs.push((v, succs(v).into_iter()));
                }
                let Some((v, next_succ)) = dfs.last_mut() else { break };
                let v = *v;
                if let Some(w) = next_succ.next() {
                    if index[w as usize] == NONE {
                        enter = Some(w);
                    } else if on_stack[w as usize] {
                        low[v as usize] = low[v as usize].min(index[w as usize]);
                    }
                    continue;
                }
                dfs.pop();
                if let Some(&(p, _)) = dfs.last() {
                    low[p as usize] = low[p as usize].min(low[v as usize]);
                }
                if low[v as usize] == index[v as usize] {
                    let id = out.start.len() as u32 - 1;
                    loop {
                        let w = stack.pop().expect("tarjan stack holds the component");
                        on_stack[w as usize] = false;
                        out.comp[w as usize] = id;
                        out.members.push(w);
                        if w == v {
                            break;
                        }
                    }
                    out.start.push(out.members.len() as u32);
                }
            }
        }
        out
    }

    /// All components in emission order.
    pub fn iter(&self) -> impl Iterator<Item = &[u32]> + '_ {
        self.start.windows(2).map(|w| &self.members[w[0] as usize..w[1] as usize])
    }

    /// The component holding node `v`.
    pub fn component_of(&self, v: u32) -> usize {
        self.comp[v as usize] as usize
    }
}
