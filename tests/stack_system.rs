//! Whole-system stack analysis (experiments E2/E8): per-task bounds,
//! recursion handling, and the OSEK preemption-chain computation.

use stamp::{assemble, Annotations, HwConfig, OsekSystem, Simulator, StackAnalysis, Task};

/// A multi-task ECU image: three tasks sharing helper functions.
const ECU_IMAGE: &str = r#"
        .text
main:   call task_ctrl          ; default entry just runs one task
        halt

task_ctrl:                      ; control task
        addi sp, sp, -64
        sw   lr, 0(sp)
        call filter
        lw   lr, 0(sp)
        addi sp, sp, 64
        ret

task_comm:                      ; communication task
        addi sp, sp, -96
        sw   lr, 0(sp)
        call checksum
        lw   lr, 0(sp)
        addi sp, sp, 96
        ret

task_bg:                        ; background task
        addi sp, sp, -32
        addi sp, sp, 32
        ret

filter: addi sp, sp, -48
        li   r1, 8
flp:    addi r1, r1, -1
        bnez r1, flp
        addi sp, sp, 48
        ret

checksum:
        addi sp, sp, -16
        addi sp, sp, 16
        ret
"#;

fn task_bound(entry: &str) -> u32 {
    let program = assemble(ECU_IMAGE).expect("assembles");
    StackAnalysis::new(&program).run_task(entry).unwrap_or_else(|e| panic!("{entry}: {e}")).bound
}

#[test]
fn per_task_bounds_follow_call_chains() {
    // Each task entry gets its own worst-case chain. The run_task entry
    // starts with a fresh stack, so `main`'s call adds only lr-less
    // frames of the task itself.
    assert_eq!(task_bound("task_ctrl"), 64 + 48);
    assert_eq!(task_bound("task_comm"), 96 + 16);
    assert_eq!(task_bound("task_bg"), 32);
}

#[test]
fn task_bounds_match_simulation() {
    let program = assemble(ECU_IMAGE).expect("assembles");
    let hw = HwConfig::default();
    // The default entry runs task_ctrl to completion.
    let mut sim = Simulator::new(&program, &hw);
    let res = sim.run(100_000).unwrap();
    let bound = StackAnalysis::new(&program).run().unwrap().bound;
    assert_eq!(res.max_stack, bound, "main-task stack must be exact");
}

#[test]
fn osek_system_bound_beats_naive_sum() {
    // Per-task bounds feed the OSEK whole-ECU analysis of ref [3].
    let ctrl = task_bound("task_ctrl");
    let comm = task_bound("task_comm");
    let bg = task_bound("task_bg");
    let sys = OsekSystem::new(vec![
        Task::new("background", 1, bg),
        Task::non_preemptable("comm", 2, comm),
        Task::new("control", 3, ctrl),
    ]);
    // comm is non-preemptable: control never piles on top of it, so the
    // worst chain is bg ← comm (ends chain) vs bg ← control.
    let expected = bg + comm.max(ctrl);
    assert_eq!(sys.system_bound(), expected);
    assert!(sys.system_bound() < sys.naive_bound());
}

#[test]
fn recursive_task_needs_and_uses_annotation() {
    let b = stamp_suite::benchmarks().into_iter().find(|b| b.name == "fac").unwrap();
    let program = b.program();
    // Without the annotation the analysis must refuse.
    let err = StackAnalysis::new(&program).run().unwrap_err();
    assert!(err.to_string().contains("recursion") || err.to_string().contains("depth"));
    // With it, the bound covers the simulated watermark.
    let report = StackAnalysis::new(&program).annotations(b.annotations()).run().unwrap();
    assert_eq!(report.mode, "callgraph");
    let hw = HwConfig::default();
    let mut sim = Simulator::new(&program, &hw);
    let res = sim.run(100_000).unwrap();
    assert!(report.bound >= res.max_stack);
    assert_eq!(report.bound, 88, "depth 11 × 8-byte frame");
    assert_eq!(res.max_stack, 88, "fac(10) recurses 11 frames deep");
}

#[test]
fn per_function_breakdown_is_reported() {
    let program = assemble(ECU_IMAGE).expect("assembles");
    let report = StackAnalysis::new(&program).run().unwrap();
    assert_eq!(report.per_function["filter"].local, 48);
    assert_eq!(report.per_function["task_ctrl"].usage, 112);
}

#[test]
fn jump_table_cases_are_resolved_before_bounding() {
    // The `jalr` dispatches through a ROM table on a RAM input: the CFG
    // is complete only after the value analysis resolves both cases, and
    // the deeper case must reach the bound.
    let program = assemble(
        "
        .text
main:   la   r10, inp
        lw   r1, 0(r10)
        la   r11, jtab
        andi r3, r1, 1
        slli r3, r3, 2
        add  r4, r11, r3
        lw   r5, 0(r4)
        jalr r0, r5, 0
case0:  addi sp, sp, -16
        addi sp, sp, 16
        j    done
case1:  addi sp, sp, -256
        addi sp, sp, 256
done:   halt
        .rodata
jtab:   .word case0, case1
        .data
inp:    .word 1
",
    )
    .expect("assembles");
    let report = StackAnalysis::new(&program).run().unwrap();
    let mut sim = Simulator::new(&program, &HwConfig::default());
    let res = sim.run(1_000).unwrap();
    assert_eq!(res.max_stack, 256);
    assert!(report.bound >= res.max_stack, "bound {} < observed {}", report.bound, res.max_stack);
}

#[test]
fn recursive_task_with_an_open_jump_needs_its_targets() {
    // The recursion stops context expansion before the value analysis
    // can resolve the `jalr`, so the call-graph fallback must not bound
    // a CFG that ends there: it asks for the jump's targets instead.
    let program = assemble(
        "
        .text
main:   li   r1, 3
        call fac
        la   r11, jtab
        lw   r5, 0(r11)
disp:   jalr r0, r5, 0
deep:   addi sp, sp, -512
        addi sp, sp, 512
        halt
fac:    addi sp, sp, -8
        sw   lr, 4(sp)
        beqz r1, base
        addi r1, r1, -1
        call fac
base:   lw   lr, 4(sp)
        addi sp, sp, 8
        ret
        .rodata
jtab:   .word deep
",
    )
    .expect("assembles");
    let recursion = Annotations::new().recursion_depth("fac", 4);
    let err = StackAnalysis::new(&program).annotations(recursion.clone()).run().unwrap_err();
    assert!(err.to_string().contains("unresolved"), "{err}");
    let report = StackAnalysis::new(&program)
        .annotations(recursion.indirect_targets("disp", ["deep".to_string()]))
        .run()
        .unwrap();
    let res = Simulator::new(&program, &HwConfig::default()).run(10_000).unwrap();
    assert_eq!(res.max_stack, 512);
    assert_eq!(report.mode, "callgraph");
    assert!(report.bound >= res.max_stack, "bound {} < observed {}", report.bound, res.max_stack);
}

#[test]
fn deep_call_chain_is_bounded_through_the_call_graph() {
    // `main` calls f0, each f{i} pushes one word and calls f{i+1}: far
    // deeper than the supergraph's call-depth limit, so the bound comes
    // from the call graph, whose passes are linear in program size.
    let n = 10_000;
    let mut src = String::from(".text\nmain: call f0\n      halt\n");
    for i in 0..n - 1 {
        src.push_str(&format!(
            "f{i}: addi sp, sp, -4\n    call f{}\n    addi sp, sp, 4\n    ret\n",
            i + 1
        ));
    }
    src.push_str(&format!("f{}: ret\n", n - 1));
    let program = assemble(&src).expect("assembles");
    let report = StackAnalysis::new(&program).run().unwrap();
    assert_eq!(report.mode, "callgraph");
    assert_eq!(report.bound, 4 * (n as u32 - 1));
    assert_eq!(report.per_function.len(), n + 1);
}
