//! The compositional (call-graph) stack analysis with recursion support.

use std::collections::BTreeMap;

use stamp_cfg::digraph::Sccs;
use stamp_cfg::{BlockId, CallSite, Cfg, FuncId};
use stamp_isa::{AluOp, Insn, Program, Reg};

use crate::{StackError, StackOptions, StackResult};

/// Per-function stack facts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FunctionStack {
    /// Deepest local extent below the function's entry `sp`, in bytes
    /// (not counting callees).
    pub local: u32,
    /// Worst-case usage including all callees.
    pub usage: u32,
}

/// Computes worst-case stack usage compositionally: a local frame
/// analysis per function, then a longest-path traversal of the call
/// graph. Recursive cycles require [`StackOptions::recursion_depths`]
/// annotations (keyed by function entry address); the cycle bound is
/// `depth × Σ member frames`, which is conservative for mutual
/// recursion.
///
/// # Errors
///
/// * [`StackError::VariableAdjustment`] if `sp` is modified by anything
///   but `addi sp, sp, ±c`;
/// * [`StackError::Recursion`] for unannotated cycles.
pub fn analyze_callgraph(
    program: &Program,
    cfg: &Cfg,
    options: &StackOptions,
) -> Result<StackResult, StackError> {
    let _ = program;
    // ---- Per-function local frame analysis.
    let mut local: Vec<i64> = Vec::with_capacity(cfg.functions().len()); // deepest (≥ 0)
    let mut call_disp: BTreeMap<BlockId, i64> = BTreeMap::new(); // at call insn
    for f in cfg.functions() {
        let mut deltas: BTreeMap<BlockId, i64> = BTreeMap::new();
        deltas.insert(f.entry, 0);
        let mut deepest: i64 = 0;
        // Blocks in reverse post-order ensures predecessors first
        // (reducible CFGs; sp must be loop-invariant anyway).
        for b in cfg.rpo(f.id) {
            let mut d = deltas.get(&b).copied().unwrap_or(0);
            let block = cfg.block(b);
            for &(addr, insn) in &block.insns {
                match insn {
                    Insn::AluImm { op: AluOp::Add, rd, rs1, imm }
                        if rd == Reg::SP && rs1 == Reg::SP =>
                    {
                        d += imm as i64;
                        deepest = deepest.min(d);
                    }
                    _ if insn.def() == Some(Reg::SP) => {
                        return Err(StackError::VariableAdjustment { addr });
                    }
                    _ => {}
                }
            }
            if cfg.call_site_of(b).is_some() {
                call_disp.insert(b, d);
            }
            for (_, e) in cfg.succs(b) {
                match deltas.get(&e.to) {
                    None => {
                        deltas.insert(e.to, d);
                    }
                    Some(&prev) => {
                        // Joins with differing sp are possible in odd
                        // code; take the deeper one (sound for usage).
                        if d < prev {
                            deltas.insert(e.to, d);
                        }
                    }
                }
            }
        }
        local.push(-deepest);
    }

    // ---- Call-graph SCCs, emitted callee-first.
    let n = cfg.functions().len();
    let callees: Vec<Vec<FuncId>> = cfg.functions().iter().map(|f| cfg.callees(f.id)).collect();
    let sccs = Sccs::new(n, |f| callees[f as usize].iter().map(|g| g.0));

    // ---- Usage per function, processing SCCs in reverse topological
    // order. A call site's contribution is its caller's displacement at
    // the call plus the callee's usage.
    let site_usage = |usage: &[u64], cs: &CallSite, g: FuncId| {
        let disp = (-call_disp.get(&cs.block).copied().unwrap_or(0)).max(0) as u64;
        disp + usage[g.index()]
    };
    let mut usage: Vec<u64> = vec![0; n];
    for (i, members) in sccs.iter().enumerate() {
        let members: Vec<FuncId> = members.iter().map(|&f| FuncId(f)).collect();
        let cyclic = members.len() > 1 || callees[members[0].index()].contains(&members[0]);
        if !cyclic {
            let f = members[0];
            let mut u = local[f.index()] as u64;
            for cs in cfg.call_sites_of(f) {
                for &g in cs.callee.targets() {
                    u = u.max(site_usage(&usage, cs, g));
                }
            }
            usage[f.index()] = u;
        } else {
            // Recursive cycle: needs a depth annotation on some member.
            let depth = members
                .iter()
                .filter_map(|&f| options.recursion_depths.get(&cfg.func(f).entry_addr).copied())
                .max()
                .ok_or_else(|| StackError::Recursion {
                    function: cfg.func(members[0]).name.clone(),
                })?;
            // Worst external contribution from any member's call site.
            let mut external: u64 = 0;
            for &f in &members {
                for cs in cfg.call_sites_of(f) {
                    for &g in cs.callee.targets() {
                        if sccs.component_of(g.0) != i {
                            external = external.max(site_usage(&usage, cs, g));
                        }
                    }
                }
            }
            let per_level: u64 = members.iter().map(|&f| local[f.index()] as u64).sum();
            let bound = depth as u64 * per_level + external;
            for &f in &members {
                usage[f.index()] = bound;
            }
        }
    }

    let per_function = cfg
        .functions()
        .iter()
        .map(|f| {
            let (local, usage) = (local[f.id.index()] as u32, usage[f.id.index()] as u32);
            (f.name.clone(), FunctionStack { local, usage })
        })
        .collect();
    Ok(StackResult { total: usage[cfg.entry_func().index()] as u32, per_function })
}

impl stamp_codec::Codec for FunctionStack {
    fn enc(&self, e: &mut stamp_codec::Enc) {
        e.u32(self.local);
        e.u32(self.usage);
    }
    fn dec(d: &mut stamp_codec::Dec) -> Result<FunctionStack, stamp_codec::CodecError> {
        Ok(FunctionStack { local: d.u32()?, usage: d.u32()? })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stamp_cfg::CfgBuilder;
    use stamp_isa::asm::assemble;

    fn run(src: &str, opts: &StackOptions) -> Result<StackResult, StackError> {
        let p = assemble(src).expect("assembles");
        let cfg = CfgBuilder::new(&p).build().expect("builds");
        analyze_callgraph(&p, &cfg, opts)
    }

    #[test]
    fn chain_of_calls() {
        let r = run(
            "\
            .text
            main: addi sp, sp, -16
                  call f
                  addi sp, sp, 16
                  halt
            f:    addi sp, sp, -32
                  sw lr, 0(sp)
                  call g
                  lw lr, 0(sp)
                  addi sp, sp, 32
                  ret
            g:    addi sp, sp, -8
                  addi sp, sp, 8
                  ret
        ",
            &StackOptions::default(),
        )
        .unwrap();
        assert_eq!(r.total, 56);
        assert_eq!(r.per_function["g"].usage, 8);
        assert_eq!(r.per_function["f"].usage, 40);
        assert_eq!(r.per_function["f"].local, 32);
    }

    #[test]
    fn recursion_needs_annotation() {
        let src = "\
            .text
            main: call fac
                  halt
            fac:  addi sp, sp, -16
                  sw lr, 4(sp)
                  beqz r1, base
                  addi r1, r1, -1
                  call fac
            base: lw lr, 4(sp)
                  addi sp, sp, 16
                  ret
        ";
        let err = run(src, &StackOptions::default()).unwrap_err();
        assert!(matches!(err, StackError::Recursion { .. }));

        let p = assemble(src).unwrap();
        let fac = p.symbols.addr_of("fac").unwrap();
        let mut opts = StackOptions::default();
        opts.recursion_depths.insert(fac, 10);
        let r = run(src, &opts).unwrap();
        assert_eq!(r.total, 160);
    }

    #[test]
    fn variable_sp_rejected() {
        let err = run(".text\nmain: sub sp, sp, r1\nhalt\n", &StackOptions::default()).unwrap_err();
        assert!(matches!(err, StackError::VariableAdjustment { .. }));
    }

    #[test]
    fn diamond_takes_deeper_side() {
        let r = run(
            "\
            .text
            main: beq r1, r0, b
                  call big
                  halt
            b:    call small
                  halt
            big:  addi sp, sp, -128
                  addi sp, sp, 128
                  ret
            small: addi sp, sp, -16
                  addi sp, sp, 16
                  ret
        ",
            &StackOptions::default(),
        )
        .unwrap();
        assert_eq!(r.total, 128);
    }

    #[test]
    fn matches_icfg_mode_on_nonrecursive_code() {
        use stamp_ai::{Icfg, VivuConfig};
        use stamp_hw::HwConfig;
        use stamp_value::{ValueAnalysis, ValueOptions};
        let src = "\
            .text
            main: addi sp, sp, -24
                  call f
                  call f
                  addi sp, sp, 24
                  halt
            f:    addi sp, sp, -40
                  addi sp, sp, 40
                  ret
        ";
        let p = assemble(src).unwrap();
        let cfg = CfgBuilder::new(&p).build().unwrap();
        let cg = analyze_callgraph(&p, &cfg, &StackOptions::default()).unwrap();
        let hw = HwConfig::default();
        let icfg = Icfg::build(&cfg, &VivuConfig::default()).unwrap();
        let va = ValueAnalysis::run(&p, &hw, &cfg, &icfg, &ValueOptions::default());
        let precise = crate::analyze_icfg(&p, &hw, &cfg, &icfg, &va).unwrap();
        assert_eq!(cg.total, precise.total);
        assert_eq!(cg.total, 64);
    }
}
