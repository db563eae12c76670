//! Structural properties of the supergraph expansion.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

use stamp_ai::{Frame, IEdgeKind, Icfg, VivuConfig};
use stamp_cfg::CfgBuilder;
use stamp_isa::asm::assemble;
use stamp_suite::{generate, GenConfig};

fn build(src: &str, vivu: &VivuConfig) -> (stamp_cfg::Cfg, Icfg) {
    let p = assemble(src).expect("assembles");
    let cfg = CfgBuilder::new(&p).build().expect("builds");
    let icfg = Icfg::build(&cfg, vivu).expect("expands");
    (cfg, icfg)
}

/// Structural invariants that must hold for every expansion.
fn check_invariants(cfg: &stamp_cfg::Cfg, icfg: &Icfg) {
    // Every node's (block, ctx) is unique and indexed.
    for nd in icfg.nodes() {
        assert_eq!(icfg.node_of(nd.block, nd.ctx), Some(nd.id));
        assert!(icfg.nodes_of_block(nd.block).contains(&nd.id));
    }
    // Edges connect existing nodes, and intra edges stay inside one
    // function while call/return edges cross function boundaries.
    for e in icfg.edges() {
        let from = icfg.node(e.from);
        let to = icfg.node(e.to);
        match e.kind {
            IEdgeKind::Intra { .. } => {
                assert_eq!(
                    cfg.block(from.block).func,
                    cfg.block(to.block).func,
                    "intra edge crosses functions"
                );
            }
            IEdgeKind::Call { .. } | IEdgeKind::Return { .. } => {
                assert_ne!(cfg.block(from.block).func, cfg.block(to.block).func);
            }
        }
    }
    // Call depth never exceeds the configured maximum.
    for nd in icfg.nodes() {
        assert!(icfg.ctxs().get(nd.ctx).call_depth() <= 16);
    }
    // The entry has the root context.
    assert_eq!(icfg.node(icfg.entry()).ctx, icfg.ctxs().root());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn generated_programs_expand_consistently(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let src = generate(&mut rng, &GenConfig::default());
        for vivu in [VivuConfig::default(), VivuConfig::no_unrolling()] {
            let (cfg, icfg) = build(&src, &vivu);
            check_invariants(&cfg, &icfg);
            // Without unrolling, contexts are call-strings only: no node
            // carries a Loop frame.
            if vivu.peel == 0 {
                for nd in icfg.nodes() {
                    let calls_only = icfg
                        .ctxs()
                        .get(nd.ctx)
                        .frames()
                        .iter()
                        .all(|f| matches!(f, Frame::Call { .. }));
                    prop_assert!(calls_only);
                }
            }
        }
    }
}

/// The loop-instance table against a direct reading of the loop forest:
/// every header node belongs to the instance its stripped context keys,
/// an instance's entries ∪ backs are exactly the in-edges of its header
/// nodes, and its backs are exactly those with `back_edge_of == header`.
fn check_loop_instances(cfg: &stamp_cfg::Cfg, icfg: &Icfg) {
    let table = icfg.loop_instances();
    let all = table.all();
    // Sorted by key, keys unique, and the same table on every build.
    assert!(all.windows(2).all(|w| w[0].key < w[1].key), "instances not sorted by key");
    assert_eq!(icfg.loop_instances(), table, "table is not deterministic");

    let mut headers = BTreeSet::new();
    for f in cfg.functions() {
        for l in cfg.loop_forest(f.id).expect("reducible").loops() {
            headers.insert(l.header);
        }
    }
    // Every header node sits in the instance its stripped context keys.
    let mut listed = 0;
    for &header in &headers {
        let insts = table.of_header(header);
        assert!(insts.iter().all(|i| i.key.0 == header));
        for &n in icfg.nodes_of_block(header) {
            let mut outer = icfg.ctxs().get(icfg.node(n).ctx).frames().to_vec();
            if matches!(outer.last(), Some(Frame::Loop { header: h, .. }) if *h == header) {
                outer.pop();
            }
            let inst = insts.iter().find(|i| i.nodes.contains(&n)).expect("header node listed");
            assert_eq!(inst.key, (header, outer), "key breaks the strip rule");
            listed += 1;
        }
    }
    // ... and nothing else is listed.
    assert_eq!(all.iter().map(|i| i.nodes.len()).sum::<usize>(), listed);

    for (idx, inst) in all.iter().enumerate() {
        let header = inst.key.0;
        let ins: BTreeSet<_> =
            inst.nodes.iter().flat_map(|&n| icfg.preds(n).map(|e| e.id)).collect();
        let backs: BTreeSet<_> = icfg
            .edges()
            .iter()
            .filter(|e| {
                matches!(e.kind, IEdgeKind::Intra { back_edge_of: Some(h), .. } if h == header)
                    && inst.nodes.contains(&e.to)
            })
            .map(|e| e.id)
            .collect();
        assert!(inst.entries.windows(2).all(|w| w[0] < w[1]), "entries not ascending");
        assert!(inst.backs.windows(2).all(|w| w[0] < w[1]), "backs not ascending");
        assert_eq!(inst.backs.iter().copied().collect::<BTreeSet<_>>(), backs);
        let both: BTreeSet<_> = inst.entries.iter().chain(&inst.backs).copied().collect();
        assert_eq!(both.len(), inst.entries.len() + inst.backs.len(), "entry is also a back");
        assert_eq!(both, ins, "entries ∪ backs != in-edges of the header nodes");
        for &e in &both {
            assert_eq!(table.of_edge(e), Some((idx, backs.contains(&e))));
        }
    }
    // Edges into non-header nodes map to no instance.
    let in_table: usize = all.iter().map(|i| i.entries.len() + i.backs.len()).sum();
    assert_eq!(icfg.edges().iter().filter(|e| table.of_edge(e.id).is_some()).count(), in_table);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn loop_instance_table_matches_the_loop_forest(seed in 0u64..500, rich in any::<bool>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = if rich { GenConfig::rich() } else { GenConfig::default() };
        let src = generate(&mut rng, &gen);
        for peel in [0u8, 1, 2] {
            let (cfg, icfg) = build(&src, &VivuConfig { peel, ..VivuConfig::default() });
            check_loop_instances(&cfg, &icfg);
            // A decoded supergraph yields the same table.
            let back: Icfg =
                stamp_codec::decode_value(&stamp_codec::encode_value(&icfg)).expect("decodes");
            prop_assert_eq!(back.loop_instances(), icfg.loop_instances());
        }
    }
}

#[test]
fn deeper_peeling_distinguishes_more_iterations() {
    let src = ".text\nmain: li r1, 9\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
    let mut node_counts = Vec::new();
    for peel in [0u8, 1, 2, 3] {
        let vivu = VivuConfig { peel, ..VivuConfig::default() };
        let (cfg, icfg) = build(src, &vivu);
        check_invariants(&cfg, &icfg);
        node_counts.push(icfg.nodes().len());
        // The loop block appears once per iteration class.
        let p = assemble(src).unwrap();
        let header = cfg.block_at(p.symbols.addr_of("loop").unwrap()).unwrap();
        assert_eq!(icfg.nodes_of_block(header).len(), peel as usize + 1);
    }
    assert!(node_counts.windows(2).all(|w| w[0] < w[1]), "{node_counts:?}");
}

#[test]
fn peel_two_back_edges_step_through_classes() {
    let src = ".text\nmain: li r1, 9\nloop: addi r1, r1, -1\nbnez r1, loop\nhalt\n";
    let vivu = VivuConfig { peel: 2, ..VivuConfig::default() };
    let (_cfg, icfg) = build(src, &vivu);
    // Back edges: #0→#1, #1→#2, #2→#2 (self loop).
    let mut transitions = Vec::new();
    for e in icfg.edges() {
        if let IEdgeKind::Intra { back_edge_of: Some(_), .. } = e.kind {
            let from_iter = iter_class(icfg.ctxs().get(icfg.node(e.from).ctx).frames());
            let to_iter = iter_class(icfg.ctxs().get(icfg.node(e.to).ctx).frames());
            transitions.push((from_iter, to_iter));
        }
    }
    transitions.sort_unstable();
    assert_eq!(transitions, vec![(0, 1), (1, 2), (2, 2)]);
}

fn iter_class(frames: &[Frame]) -> u8 {
    match frames.last() {
        Some(Frame::Loop { iter, .. }) => *iter,
        _ => u8::MAX,
    }
}

#[test]
fn context_explosion_is_detected() {
    // Many nested loops with a tiny context budget.
    let src = "\
        .text
        main: li r1, 2
        l1:   li r2, 2
        l2:   li r3, 2
        l3:   addi r3, r3, -1
              bnez r3, l3
              addi r2, r2, -1
              bnez r2, l2
              addi r1, r1, -1
              bnez r1, l1
              halt
    ";
    let p = assemble(src).unwrap();
    let cfg = CfgBuilder::new(&p).build().unwrap();
    let vivu = VivuConfig { peel: 3, max_contexts: 4, ..VivuConfig::default() };
    let err = Icfg::build(&cfg, &vivu).unwrap_err();
    assert!(matches!(err, stamp_ai::IcfgError::ContextExplosion { .. }));
}
