//! Integration tests for the static kernel verifier: the production
//! registry must prove clean, every seeded corpus defect must be flagged
//! with its expected rule, and symbolic execution must leave a kernel's
//! results bitwise unchanged.

use landau_check::corpus::{corpus, run_corpus_kernel};
use landau_check::verify::{analyze_block, verify_registry, VerifyRule};
use landau_core::kernels::{
    inner_integral_kokkos_model, inner_integral_kokkos_with, staging_scratch_budget,
};
use landau_core::registry::{KernelRegistry, VerifyInput};
use landau_vgpu::SymbolicCtx;

#[test]
fn production_kernels_prove_clean_over_the_policy_family() {
    let reg = KernelRegistry::standard();
    let input = VerifyInput::representative();
    let report = verify_registry(&reg, &input);
    assert!(report.kernels.len() >= 2, "both kokkos kernels verified");
    for k in &report.kernels {
        assert!(
            k.is_clean(),
            "{}: {} violation(s): {:?}",
            k.name,
            k.findings.len(),
            k.findings
        );
        assert!(k.blocks > 0, "{}: no blocks analyzed", k.name);
        assert!(
            k.vector_lengths.len() >= 5,
            "{}: family too small to call a sweep",
            k.name
        );
    }
    assert_eq!(report.violations(), 0);
    // The staged kernel's footprint is affine (strided staging writes +
    // broadcast reads), so the bulk of the obligations must be discharged
    // in the affine domain — symbolically over all lane pairs, not by
    // sampling.
    let proofs = report.proofs();
    assert!(proofs.total() > 0);
    assert!(proofs.affine > 0, "expected affine proofs, got {proofs:?}");
}

#[test]
fn every_seeded_defect_is_flagged_with_its_rule() {
    let ks = corpus();
    let defects: Vec<_> = ks.iter().filter(|k| k.expected.is_some()).collect();
    assert!(defects.len() >= 6, "corpus must seed at least 6 defects");
    for k in &defects {
        let bf = run_corpus_kernel(k);
        let want = k.expected.unwrap();
        assert!(
            bf.findings.iter().any(|(r, _, _)| *r == want),
            "{}: expected {} among {:?}",
            k.name,
            want.code(),
            bf.findings
        );
    }
}

#[test]
fn corpus_defect_classes_cover_the_issue_list() {
    // The six classes the verifier is specified against, at minimum.
    let need = [
        VerifyRule::RaceReadWrite,     // missing barrier
        VerifyRule::BarrierDivergence, // divergent barrier_if
        VerifyRule::RaceWriteWrite,    // off-by-one lane stride overlap
        VerifyRule::Capacity,          // over-capacity on smallest GpuSpec
        VerifyRule::ReduceOrder,       // order-dependent raw accumulation
        VerifyRule::OutOfBounds,       // out-of-bounds affine index
    ];
    let have: Vec<_> = corpus().iter().filter_map(|k| k.expected).collect();
    for rule in need {
        assert!(
            have.contains(&rule),
            "corpus missing a {} defect",
            rule.code()
        );
    }
}

#[test]
fn clean_control_stays_clean() {
    let ks = corpus();
    let control = ks
        .iter()
        .find(|k| k.expected.is_none())
        .expect("corpus has a clean control");
    let bf = run_corpus_kernel(control);
    assert!(bf.findings.is_empty(), "{:?}", bf.findings);
    assert!(bf.proofs.total() > 0, "control must discharge obligations");
}

#[test]
fn symbolic_execution_matches_plain_launch_bitwise() {
    // Logging every scratch access must not perturb the kernel: the staged
    // Kokkos kernel run under the symbolic factory returns the plain
    // launch's coefficients bit for bit, and its logs analyze clean.
    let input = VerifyInput::representative();
    let dims = input.dims();
    for vl in [1usize, 8, 16] {
        let ctx = SymbolicCtx::new();
        let (logged, t) = inner_integral_kokkos_with(&input.ip, &input.species, vl, &ctx);
        let (plain, _) = inner_integral_kokkos_model(&input.ip, &input.species, vl);
        assert_eq!(logged.max_rel_diff(&plain), 0.0, "vl={vl}");
        assert!(t.flops > 0);
        let logs = ctx.take_logs();
        assert!(!logs.is_empty(), "vl={vl}: no blocks logged");
        for log in &logs {
            let budget = staging_scratch_budget(&dims, &log.policy);
            let bf = analyze_block(log, Some(budget));
            assert!(bf.findings.is_empty(), "vl={vl}: {:?}", bf.findings);
            assert!(bf.proofs.total() > 0, "vl={vl}: no obligations discharged");
        }
    }
}
