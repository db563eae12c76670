//! Structural properties of CFG reconstruction over generated programs.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use stamp_cfg::digraph::{reverse_postorder, DomTree, Sccs};
use stamp_cfg::{CfgBuilder, EdgeKind};
use stamp_isa::asm::assemble;
use stamp_isa::Flow;
use stamp_suite::{generate, GenConfig};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blocks_partition_discovered_code(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = generate(&mut rng, &GenConfig::default());
        let p = assemble(&src).expect("assembles");
        let cfg = CfgBuilder::new(&p).build().expect("builds");

        // No instruction address appears in two blocks.
        let mut seen = std::collections::BTreeSet::new();
        for b in cfg.blocks() {
            for &(addr, _) in &b.insns {
                prop_assert!(seen.insert(addr), "address {addr:#x} in two blocks");
            }
            // Instructions within a block are consecutive.
            for w in b.insns.windows(2) {
                prop_assert_eq!(w[0].0 + 4, w[1].0);
            }
            // Only the last instruction may change control flow.
            for &(addr, insn) in &b.insns[..b.insns.len() - 1] {
                prop_assert!(
                    matches!(insn.flow(addr), Flow::Seq),
                    "non-terminator control flow inside a block"
                );
            }
        }

        // Edge endpoints agree with the terminators.
        for b in cfg.blocks() {
            let succs: Vec<EdgeKind> = cfg.succs(b.id).map(|(_, e)| e.kind).collect();
            match b.exit_flow() {
                Flow::Branch { .. } => {
                    prop_assert!(succs.len() <= 2 && !succs.is_empty());
                }
                Flow::Jump { .. } => prop_assert_eq!(succs.len(), 1),
                Flow::Halt | Flow::Return => prop_assert!(succs.is_empty()),
                Flow::Call { .. } | Flow::IndirectCall => {
                    prop_assert!(succs.iter().all(|k| *k == EdgeKind::CallFall));
                }
                Flow::Seq => prop_assert!(succs.len() <= 1),
                Flow::IndirectJump => {}
            }
        }

        // RPO of each function starts at its entry and visits blocks of
        // that function only, exactly once.
        for f in cfg.functions() {
            let order = cfg.rpo(f.id);
            prop_assert_eq!(order.first().copied(), Some(f.entry));
            let unique: std::collections::BTreeSet<_> = order.iter().collect();
            prop_assert_eq!(unique.len(), order.len());
            for b in &order {
                prop_assert_eq!(cfg.block(*b).func, f.id);
            }
        }

        // Dominators: every function entry dominates all its blocks, and
        // `dominates` agrees with walking the immediate-dominator chain.
        for f in cfg.functions() {
            let dom = cfg.dominators(f.id);
            for &b in &f.blocks {
                if cfg.rpo(f.id).contains(&b) {
                    prop_assert!(dom.dominates(f.entry, b));
                }
                let mut chain = vec![b];
                while let Some(d) = dom.idom(*chain.last().unwrap()) {
                    chain.push(d);
                }
                for a in cfg.blocks() {
                    let walked = a.id == b || (dom.idom(b).is_some() && chain.contains(&a.id));
                    prop_assert_eq!(dom.dominates(a.id, b), walked);
                }
            }
        }

        // Loop bodies contain their headers; back edges originate inside.
        for f in cfg.functions() {
            let forest = cfg.loop_forest(f.id).expect("reducible by construction");
            for l in forest.loops() {
                prop_assert!(l.body.contains(&l.header));
                for &e in &l.back_edges {
                    prop_assert!(l.body.contains(&cfg.edge(e).from));
                    prop_assert_eq!(cfg.edge(e).to, l.header);
                }
                for &e in &l.entry_edges {
                    prop_assert!(!l.body.contains(&cfg.edge(e).from));
                }
                // Nesting: the parent is the smallest other loop holding
                // the header, and holds the whole body.
                let parent = forest
                    .loops()
                    .iter()
                    .filter(|o| o.id != l.id && o.body.contains(&l.header))
                    .min_by_key(|o| o.body.len());
                prop_assert_eq!(l.parent, parent.map(|o| o.id));
                prop_assert_eq!(l.depth, parent.map_or(1, |o| o.depth + 1));
                if let Some(o) = parent {
                    prop_assert!(o.body.is_superset(&l.body) && o.body.len() > l.body.len());
                }
            }
            for &b in &f.blocks {
                let smallest = forest
                    .loops()
                    .iter()
                    .filter(|l| l.body.contains(&b))
                    .min_by_key(|l| l.body.len())
                    .map(|l| l.id);
                prop_assert_eq!(forest.innermost(b), smallest);
            }
        }
    }
}

/// Random digraphs on `n` nodes with node 0 as the entry. Arbitrary edge
/// lists give unreachable nodes, self-loops, parallel edges and
/// irreducible cycles.
fn digraph() -> impl Strategy<Value = Vec<Vec<u32>>> {
    (1usize..14).prop_flat_map(|n| {
        prop::collection::vec((0..n as u32, 0..n as u32), 0..3 * n).prop_map(move |edges| {
            let mut succs = vec![Vec::new(); n];
            for (a, b) in edges {
                succs[a as usize].push(b);
            }
            succs
        })
    })
}

/// The nodes reachable from `from` (inclusive) without passing `removed`.
fn reach(succs: &[Vec<u32>], from: u32, removed: Option<u32>) -> Vec<bool> {
    let mut seen = vec![false; succs.len()];
    if Some(from) == removed {
        return seen;
    }
    seen[from as usize] = true;
    let mut work = vec![from];
    while let Some(u) = work.pop() {
        for &v in &succs[u as usize] {
            if Some(v) != removed && !seen[v as usize] {
                seen[v as usize] = true;
                work.push(v);
            }
        }
    }
    seen
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The shared graph toolkit against the definitions it implements.
    #[test]
    fn digraph_results_match_their_definitions(succs in digraph()) {
        let n = succs.len();
        let next = |u: u32| succs[u as usize].clone();
        let reachable = reach(&succs, 0, None);
        let reaches: Vec<Vec<bool>> = (0..n as u32).map(|u| reach(&succs, u, None)).collect();

        // RPO: exactly the reachable nodes, entry first, and every edge
        // either goes forward in the order or closes a cycle.
        let rpo = reverse_postorder(n, 0, next);
        prop_assert_eq!(rpo.first().copied(), Some(0));
        let mut pos = vec![usize::MAX; n];
        for (i, &u) in rpo.iter().enumerate() {
            prop_assert_eq!(pos[u as usize], usize::MAX, "node {} listed twice", u);
            pos[u as usize] = i;
        }
        for u in 0..n {
            prop_assert_eq!(pos[u] != usize::MAX, reachable[u]);
            for &v in &succs[u] {
                if reachable[u] {
                    prop_assert!(pos[u] < pos[v as usize] || reaches[v as usize][u]);
                }
            }
        }

        // Dominators: for reachable b, a dominates b iff b is unreachable
        // once a is removed; unreachable nodes only dominate themselves
        // and are dominated only by themselves.
        let dom = DomTree::new(n, 0, next);
        prop_assert_eq!(dom.rpo(), &rpo[..]);
        let dominates: Vec<Vec<bool>> = (0..n as u32)
            .map(|a| {
                let without = reach(&succs, 0, Some(a));
                (0..n).map(|b| a as usize == b || (reachable[b] && !without[b])).collect()
            })
            .collect();
        for a in 0..n as u32 {
            for b in 0..n as u32 {
                let expected = a == b || (reachable[a as usize] && dominates[a as usize][b as usize]);
                prop_assert_eq!(dom.dominates(a, b), expected, "dominates({}, {})", a, b);
                // The nearest common dominator dominates both and is
                // dominated by every common dominator.
                let ncd = dom.nearest_common_dominator(a, b);
                prop_assert_eq!(ncd.is_some(), reachable[a as usize] && reachable[b as usize]);
                if let Some(c) = ncd {
                    prop_assert!(dom.dominates(c, a) && dom.dominates(c, b));
                    for d in 0..n as u32 {
                        if dom.dominates(d, a) && dom.dominates(d, b) {
                            prop_assert!(dom.dominates(d, c));
                        }
                    }
                }
            }
            // The immediate dominator is the closest strict dominator.
            let strict: Vec<u32> = (0..n as u32)
                .filter(|&d| d != a && reachable[a as usize] && dominates[d as usize][a as usize])
                .collect();
            match dom.idom(a) {
                None => prop_assert!(strict.is_empty()),
                Some(i) => {
                    prop_assert!(strict.contains(&i));
                    prop_assert!(strict.iter().all(|&d| dom.dominates(d, i)));
                }
            }
        }

        // SCCs: two nodes share a component iff each reaches the other,
        // and every edge leaving a component points to one emitted
        // earlier.
        let sccs = Sccs::new(n, next);
        let mut listed = 0;
        for (i, members) in sccs.iter().enumerate() {
            prop_assert!(!members.is_empty());
            listed += members.len();
            for &u in members {
                prop_assert_eq!(sccs.component_of(u), i);
            }
        }
        prop_assert_eq!(listed, n);
        for u in 0..n as u32 {
            for v in 0..n as u32 {
                let same = sccs.component_of(u) == sccs.component_of(v);
                let mutual = reaches[u as usize][v as usize] && reaches[v as usize][u as usize];
                prop_assert_eq!(same, mutual, "nodes {} and {}", u, v);
            }
            for &v in &succs[u as usize] {
                prop_assert!(sccs.component_of(v) <= sccs.component_of(u));
            }
        }
    }
}
