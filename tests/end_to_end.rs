//! Cross-crate integration tests: the full pipeline from cipher to
//! instrumented execution and attack detection.

use pacstack::aarch64::{Cpu, Fault, Instruction, Reg, RunStatus};
use pacstack::acs::{AcsConfig, AuthenticatedCallStack, Masking};
use pacstack::compiler::{frame, lower, FuncDef, Module, Scheme, Stmt};
use pacstack::pauth::{PaKey, PaKeys, PointerAuth, VaLayout};
use pacstack::qarma::Qarma64;

#[test]
fn cipher_feeds_pac_feeds_acs() {
    // The same QARMA instance the PA unit uses must underlie the chain:
    // manually recompute one chain link and compare against the ACS.
    let layout = VaLayout::default();
    let pa = PointerAuth::new(layout);
    let keys = PaKeys::from_seed(5);
    let mut acs = AuthenticatedCallStack::new(
        pa,
        keys.clone(),
        AcsConfig::default().masking(Masking::Unmasked),
    );
    acs.call(0x40_1000);

    let cipher = Qarma64::recommended(keys.key(PaKey::Ia));
    let expected_token = cipher.encrypt(0x40_1000, 0) & ((1 << layout.pac_bits()) - 1);
    assert_eq!(layout.extract_pac(acs.chain_register()), expected_token);
}

#[test]
fn simulator_chain_matches_state_machine() {
    // Run an instrumented program to a checkpoint and check that the CR
    // register holds exactly what the pure ACS model predicts for the
    // calls still open there, with their real return addresses.
    let mut module = Module::new();
    module.push(FuncDef::new(
        "main",
        vec![Stmt::Call("inner".into()), Stmt::Return],
    ));
    module.push(FuncDef::new(
        "inner",
        vec![
            Stmt::Checkpoint(50),
            Stmt::Call("leafish".into()),
            Stmt::Return,
        ],
    ));
    module.push(FuncDef::new(
        "leafish",
        vec![Stmt::Compute(1), Stmt::Return],
    ));

    for (scheme, masking) in [
        (Scheme::PacStack, Masking::Masked),
        (Scheme::PacStackNomask, Masking::Unmasked),
    ] {
        let mut cpu = Cpu::with_seed(lower(&module, scheme), 7);
        // The return address of every call not yet returned from: `pc + 4`
        // of each `bl`/`blr`, dropped again at its `ret`.
        let mut open_calls: Vec<u64> = Vec::new();
        let out = cpu
            .run_observed(100_000, |cpu, insn| match insn {
                Instruction::Bl(_) | Instruction::Blr(_) => open_calls.push(cpu.pc() + 4),
                Instruction::Ret | Instruction::Retaa | Instruction::Retab => {
                    open_calls.pop();
                }
                _ => {}
            })
            .unwrap();
        assert_eq!(out.status, RunStatus::Syscall(50));
        // The entry stub's call of main, then main's call of inner.
        assert_eq!(open_calls.len(), 2, "{scheme}: {open_calls:x?}");

        let mut model = AuthenticatedCallStack::new(
            PointerAuth::new(VaLayout::default()),
            cpu.keys().clone(),
            AcsConfig::new().masking(masking),
        );
        for &ret in &open_calls {
            model.call(ret);
        }
        assert_eq!(
            cpu.reg(Reg::CR),
            model.chain_register(),
            "{scheme}: simulator CR differs from the ACS model"
        );
    }
}

#[test]
fn fpac_mode_turns_corruption_into_immediate_fault() {
    let mut module = Module::new();
    module.push(FuncDef::new(
        "main",
        vec![Stmt::Call("victim".into()), Stmt::Return],
    ));
    module.push(FuncDef::new(
        "victim",
        vec![
            Stmt::Checkpoint(51),
            Stmt::Call("noop".into()),
            Stmt::Return,
        ],
    ));
    module.push(FuncDef::new("noop", vec![Stmt::Compute(1), Stmt::Return]));

    let program = lower(&module, Scheme::PacStack);
    let mut cpu = Cpu::with_seed(program, 3);
    cpu.enable_fpac();
    let out = cpu.run(100_000).unwrap();
    assert_eq!(out.status, RunStatus::Syscall(51));
    let sp = cpu.reg(Reg::Sp);
    cpu.mem_mut()
        .write_u64(sp + frame::CHAIN_SLOT as u64, 0xBAD)
        .unwrap();
    assert!(matches!(cpu.run(100_000), Err(Fault::PacFault { .. })));
}

#[test]
fn rekeyed_process_invalidates_harvested_chain() {
    // exec() regenerates keys: a chain value captured before re-keying is
    // useless afterwards.
    let pa = PointerAuth::new(VaLayout::default());
    let mut acs = AuthenticatedCallStack::new(pa, PaKeys::from_seed(1), AcsConfig::default());
    acs.call(0x40_1000);
    acs.call(0x40_2000);
    let harvested = acs.frames()[1].stored_chain;

    let mut fresh = AuthenticatedCallStack::new(pa, PaKeys::from_seed(2), AcsConfig::default());
    fresh.call(0x40_1000);
    fresh.call(0x40_2000);
    fresh.frames_mut()[1].stored_chain = harvested;
    // Same call sequence, same addresses — but new keys. With a 16-bit PAC
    // the stale value verifies only with probability 2^-16.
    assert!(fresh.ret().is_err());
}

#[test]
fn every_scheme_survives_the_nginx_workload() {
    use pacstack::workloads::measure::run_module;
    use pacstack::workloads::nginx::server_module;
    let module = server_module(10);
    let baseline = run_module(&module, Scheme::Baseline, 2_000_000_000);
    for scheme in Scheme::ALL {
        let m = run_module(&module, scheme, 2_000_000_000);
        assert_eq!(m.exit_code, baseline.exit_code, "{scheme}");
        assert!(
            m.cycles >= baseline.cycles,
            "{scheme} faster than baseline?"
        );
    }
}

#[test]
fn pac_memo_changes_no_whole_program_result() {
    // The CPU's PAC memo cache replays MACs the PA unit would recompute,
    // so whole programs must retire identically with it on and off. The
    // stack keeps the signed chain values spilled by returned frames, which
    // exposes a memo that signs and verifies consistently but wrongly.
    use pacstack::aarch64::LAYOUT;
    use pacstack::workloads::nginx::server_module;
    use pacstack::workloads::spec::{c_benchmark, Suite};
    let stack = |cpu: &Cpu| -> Vec<u64> {
        (1..=512)
            .map(|i| cpu.mem().read_u64(LAYOUT.stack_top - 8 * i).unwrap())
            .collect()
    };
    let modules = [
        (
            "perlbench",
            c_benchmark("perlbench").unwrap().module(Suite::Rate),
        ),
        ("nginx", server_module(40)),
    ];
    for (name, module) in &modules {
        for scheme in [Scheme::PacStack, Scheme::PacStackNomask] {
            let program = lower(module, scheme);
            let mut memo = Cpu::with_seed(program.clone(), 0xACE5);
            let mut plain = Cpu::with_seed(program, 0xACE5);
            plain.set_pac_memo(false);
            let a = memo.run(2_000_000_000).unwrap();
            let b = plain.run(2_000_000_000).unwrap();
            assert!(matches!(a.status, RunStatus::Exited(_)), "{name} {scheme}");
            assert_eq!(a.status, b.status, "{name} {scheme}");
            assert_eq!(a.cycles, b.cycles, "{name} {scheme}");
            assert_eq!(a.instructions, b.instructions, "{name} {scheme}");
            assert_eq!(memo.output(), plain.output(), "{name} {scheme}");
            assert_eq!(stack(&memo), stack(&plain), "{name} {scheme}");
            assert!(
                memo.pac_cache_stats().0 > 0,
                "{name} {scheme}: no memo hits"
            );
            assert_eq!(plain.pac_cache_stats(), (0, 0), "{name} {scheme}");
        }
    }
}

#[test]
fn chain_register_value_is_key_dependent_and_path_dependent() {
    let pa = PointerAuth::new(VaLayout::default());
    let build = |seed: u64, path: &[u64]| {
        let mut acs =
            AuthenticatedCallStack::new(pa, PaKeys::from_seed(seed), AcsConfig::default());
        for &r in path {
            acs.call(r);
        }
        acs.chain_register()
    };
    let a = build(1, &[0x40_1000, 0x40_2000]);
    let b = build(2, &[0x40_1000, 0x40_2000]);
    let c = build(1, &[0x40_3000, 0x40_2000]);
    assert_ne!(a, b, "key must matter");
    assert_ne!(a, c, "path must matter (this is what defeats reuse)");
}
