//! One injection run, end to end: build a two-CPU system, replay the
//! workload, corrupt state at each planned point, classify what
//! happened.
//!
//! A run executes a [`Spec`]'s whole fault plan — one fault for the
//! single campaigns, an ordered pair for the compositional campaigns.
//! Structural kinds go through [`FaultPort`] between two events;
//! bus-level kinds are armed at [`FaultyBus`], a [`SystemBus`] wrapper
//! that corrupts the next applicable transaction in flight (faults
//! armed earlier fire first). The replay runs under `catch_unwind` so
//! an assertion or invariant panic is classified (detected-fatal: the
//! model failed loudly) instead of killing the campaign.

use std::panic::{catch_unwind, AssertUnwindSafe};

use vrcache::bus_api::{BusRequest, BusResponse, SystemBus};
use vrcache::fault::{FaultKind, FaultPort, FaultRecord};
use vrcache::hierarchy::CacheHierarchy;
use vrcache_bus::oracle::Version;
use vrcache_bus::retry::{NackStats, RetryPolicy};
use vrcache_mem::access::CpuId;
use vrcache_sim::machine::Machine;
use vrcache_sim::snoop::SnoopingBus;
use vrcache_trace::record::TraceEvent;

use crate::campaign::Spec;
use crate::workload;

/// A hierarchy the harness can both drive and corrupt.
///
/// Blanket-implemented for every [`CacheHierarchy`] that also exposes a
/// [`FaultPort`] — the trait object `dyn FaultTarget` carries both
/// vtables, so the same boxed hierarchy rides the snooping bus *and*
/// takes injections.
pub trait FaultTarget: CacheHierarchy + FaultPort {}

impl<T: CacheHierarchy + FaultPort> FaultTarget for T {}

/// How one injection run ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Outcome {
    /// The corruption was never consumed (dead state, or re-derived
    /// before use): run completed, nothing noticed, oracle satisfied.
    Masked,
    /// Parity or a bus NACK fired and the run still completed with no
    /// stale read.
    DetectedRecovered,
    /// SECDED located and repaired every consumed data upset in place:
    /// the run completed with no refetch, no machine check and no
    /// stale read.
    DetectedCorrected,
    /// The fault was noticed but the run could not continue correctly:
    /// a machine check, a panic, or a stale read after detection.
    DetectedFatal,
    /// A stale read with zero detection events — silent data
    /// corruption.
    Sdc,
    /// The organization had no live target for any planned fault at
    /// its chosen point (or an armed bus fault saw no applicable
    /// transaction).
    NotApplicable,
}

impl Outcome {
    /// Every outcome, in report-count order.
    pub const ALL: [Outcome; 6] = [
        Outcome::Masked,
        Outcome::DetectedRecovered,
        Outcome::DetectedCorrected,
        Outcome::DetectedFatal,
        Outcome::Sdc,
        Outcome::NotApplicable,
    ];

    /// Stable report label.
    pub const fn label(self) -> &'static str {
        match self {
            Outcome::Masked => "masked",
            Outcome::DetectedRecovered => "detected-recovered",
            Outcome::DetectedCorrected => "detected-corrected",
            Outcome::DetectedFatal => "detected-fatal",
            Outcome::Sdc => "sdc",
            Outcome::NotApplicable => "not-applicable",
        }
    }
}

impl std::fmt::Display for Outcome {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The classified result of one injection run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The classification.
    pub outcome: Outcome,
    /// Per-plan-position injection results, aligned with
    /// [`Spec::plan`]. `None` at a position means that fault found no
    /// live target (all `None` iff the run is not-applicable).
    pub applied: Vec<Option<FaultRecord>>,
    /// Total detection events: parity refetches + machine checks + bus
    /// NACKs.
    pub detections: u64,
    /// SECDED in-place corrections (not counted as detections).
    pub corrections: u64,
    /// One-line, newline-free, deterministic narrative for the report.
    pub detail: String,
}

impl RunResult {
    /// Whether any planned fault actually landed.
    pub fn any_applied(&self) -> bool {
        self.applied.iter().any(Option::is_some)
    }
}

/// Bus-fault arming state, shared across every transaction of a run.
/// Armed entries are tagged with their plan position so a pair of bus
/// faults fires in plan order, one per applicable transaction.
#[derive(Default)]
struct BusFaultState {
    armed: Vec<(usize, FaultKind)>,
    /// Detect-and-retry enabled (tied to the parity setting of the run).
    recovery: bool,
    policy: RetryPolicy,
    nacks: NackStats,
    fired: Vec<(usize, FaultRecord)>,
    subblocks: u32,
}

fn request_label(request: &BusRequest) -> &'static str {
    match request {
        BusRequest::ReadMiss { .. } => "read-miss",
        BusRequest::ReadModifiedWrite { .. } => "read-modified-write",
        BusRequest::Invalidate { .. } => "invalidate",
        BusRequest::WriteBack { .. } => "write-back",
        BusRequest::Update { .. } => "update",
    }
}

/// What the issuer sees when its transaction was dropped without
/// recovery: a fabricated "nobody shared, memory at rest" response —
/// exactly the stale view a lost bus grant would produce.
fn fabricated_response(request: &BusRequest, subblocks: u32) -> BusResponse {
    match request {
        BusRequest::ReadMiss { .. } | BusRequest::ReadModifiedWrite { .. } => BusResponse {
            shared_elsewhere: false,
            granule_versions: std::iter::repeat_n(Version::INITIAL, subblocks as usize).collect(),
        },
        _ => BusResponse::default(),
    }
}

/// A [`SystemBus`] wrapper that applies the earliest-armed applicable
/// bus-level fault to the next matching transaction. With recovery on,
/// the fault surfaces as a NACK and the transaction is retried
/// (forwarded intact); with recovery off, the corruption reaches the
/// system.
struct FaultyBus<'a, 'b> {
    inner: &'a mut SnoopingBus<'b, dyn FaultTarget>,
    state: &'a mut BusFaultState,
}

impl SystemBus for FaultyBus<'_, '_> {
    fn issue(&mut self, request: BusRequest) -> BusResponse {
        let slot = self.state.armed.iter().position(|&(_, kind)| match kind {
            FaultKind::BusDropTxn | FaultKind::BusDuplicateTxn => true,
            FaultKind::BusLostInvalidate => matches!(request, BusRequest::Invalidate { .. }),
            _ => false,
        });
        let Some(slot) = slot else {
            return self.inner.issue(request);
        };
        let (position, kind) = self.state.armed.remove(slot);
        self.state.fired.push((
            position,
            FaultRecord {
                kind,
                detail: format!(
                    "{} on {} for block {:#x}",
                    kind.label(),
                    request_label(&request),
                    request.block().raw()
                ),
            },
        ));
        if self.state.recovery {
            // The bus detects the mangled transaction, NACKs it, and the
            // issuer retries; the retry goes through intact.
            let _ = self.state.nacks.nack_and_retry(self.state.policy, 0);
            return self.inner.issue(request);
        }
        match kind {
            FaultKind::BusDropTxn => fabricated_response(&request, self.state.subblocks),
            FaultKind::BusDuplicateTxn => {
                let second = request.clone();
                let _ = self.inner.issue(request);
                self.inner.issue(second)
            }
            // Lost invalidation: the issuer believes it was delivered;
            // no snooper hears it.
            _ => BusResponse::default(),
        }
    }
}

/// Everything the replay records that must survive a panic: the closure
/// updates this after every event, so classification works even when an
/// assertion killed the run halfway through.
#[derive(Default)]
struct Observations {
    /// Per-plan-position: `Some(port_result)` once that structural
    /// injection was attempted (bus positions stay `None` here — the
    /// bus state tracks them).
    injected: Vec<Option<Option<FaultRecord>>>,
    refetches: u64,
    machine_checks: u64,
    corrections: u64,
    violation: Option<String>,
    completed: bool,
}

impl Observations {
    /// Re-reads the detection counters from every hierarchy.
    fn tally(&mut self, machine: &Machine<dyn FaultTarget>) {
        (self.refetches, self.machine_checks, self.corrections) = (0, 0, 0);
        for h in machine.iter() {
            let e = h.events();
            self.refetches += e.parity_refetches;
            self.machine_checks += e.parity_machine_checks;
            self.corrections += e.secded_corrections;
        }
    }
}

fn one_line(s: &str) -> String {
    s.replace('\n', "; ")
}

/// Number of processors every campaign system has.
pub const CPUS: u16 = 2;

/// Target-selection seed for the fault at `position` of the plan.
/// Position 0 uses the workload seed unchanged (byte-compatible with
/// the legacy single-fault campaigns); later positions are displaced by
/// an odd 64-bit constant so a same-kind pair picks a different target
/// instead of re-flipping (and so unflipping) the first one.
fn fault_seed(seed: u64, position: usize) -> u64 {
    seed.wrapping_add((position as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// Runs one injection spec — its whole fault plan over its workload
/// shape — to completion and classifies it.
pub fn run(spec: &Spec) -> RunResult {
    let cfg = spec.config();
    let subblocks = cfg.subblocks();
    let events = workload::build_shaped(spec.seed, &spec.shape);

    let mut obs = Observations {
        injected: vec![None; spec.plan.len()],
        ..Observations::default()
    };
    let mut bus_state = BusFaultState {
        recovery: spec.parity,
        subblocks,
        ..BusFaultState::default()
    };

    let caught = catch_unwind(AssertUnwindSafe(|| {
        let hierarchies = (0..CPUS).map(|c| spec.org.build(CpuId::new(c), &cfg));
        let mut machine: Machine<dyn FaultTarget> = Machine::new(hierarchies, subblocks);

        for (i, event) in events.iter().enumerate() {
            for (position, fault) in spec.plan.iter().enumerate() {
                if i as u64 != fault.point {
                    continue;
                }
                if fault.kind.is_bus_level() {
                    bus_state.armed.push((position, fault.kind));
                } else {
                    let record = machine
                        .get_mut(CpuId::new(0))
                        .expect("hierarchy present between events")
                        .inject_fault(fault.kind, fault_seed(spec.seed, position));
                    obs.injected[position] = Some(record);
                }
            }
            // Every structural fault attempted, none landed, and no bus
            // fault is (or will be) armed: the run is not-applicable
            // and there is nothing left to observe.
            if bus_state.armed.is_empty()
                && bus_state.fired.is_empty()
                && !spec.plan.iter().any(|f| f.kind.is_bus_level())
                && obs.injected.iter().all(|slot| *slot == Some(None))
            {
                return;
            }
            let result = match event {
                TraceEvent::Access(a) => machine
                    .with_bus(a.cpu, None, |h, inner, oracle| {
                        let mut bus = FaultyBus {
                            inner,
                            state: &mut bus_state,
                        };
                        h.access(a, &mut bus, oracle).map(|_| ())
                    })
                    .expect("workload cpus are in range"),
                TraceEvent::ContextSwitch { cpu, from, to } => {
                    machine
                        .get_mut(*cpu)
                        .expect("workload cpus are in range")
                        .context_switch(*from, *to);
                    Ok(())
                }
            };
            obs.tally(&machine);
            if let Err(v) = result {
                obs.violation = Some(v.to_string());
                return;
            }
            // A machine check halts the processor: graceful
            // degradation, but the run is over.
            if obs.machine_checks > 0 {
                return;
            }
        }
        obs.completed = true;
    }));

    let panic_msg = match caught {
        Ok(()) => None,
        Err(payload) => Some(
            payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic payload".to_string()),
        ),
    };

    let applied: Vec<Option<FaultRecord>> = spec
        .plan
        .iter()
        .enumerate()
        .map(|(position, fault)| {
            if fault.kind.is_bus_level() {
                bus_state
                    .fired
                    .iter()
                    .find(|(p, _)| *p == position)
                    .map(|(_, record)| record.clone())
            } else {
                obs.injected[position].clone().flatten()
            }
        })
        .collect();
    let detections = obs.refetches + obs.machine_checks + bus_state.nacks.nacks;
    let corrections = obs.corrections;
    let any_applied = applied.iter().any(Option::is_some);

    let (outcome, detail) = if !any_applied {
        (Outcome::NotApplicable, "no live target".to_string())
    } else if let Some(msg) = panic_msg {
        (Outcome::DetectedFatal, format!("panic: {}", one_line(&msg)))
    } else if obs.machine_checks > 0 {
        (
            Outcome::DetectedFatal,
            format!("machine check ({} detections)", detections),
        )
    } else if let Some(v) = obs.violation {
        // Corrections never excuse a stale read: repairing fault A does
        // not detect fault B, so only real detection events demote an
        // SDC to detected-fatal.
        if detections > 0 {
            (
                Outcome::DetectedFatal,
                format!("stale read after detection: {}", one_line(&v)),
            )
        } else {
            (Outcome::Sdc, format!("stale read: {}", one_line(&v)))
        }
    } else if detections > 0 {
        (
            Outcome::DetectedRecovered,
            format!("{} detections, clean completion", detections),
        )
    } else if corrections > 0 {
        (
            Outcome::DetectedCorrected,
            format!("{} corrected in place, clean completion", corrections),
        )
    } else {
        (Outcome::Masked, "clean completion".to_string())
    };

    // Per-fault suffix: the legacy single-fault format is preserved
    // byte for byte; plans with several faults join their records in
    // plan order.
    let detail = if any_applied {
        let records: Vec<String> = applied
            .iter()
            .zip(spec.plan.iter())
            .enumerate()
            .map(|(position, (record, fault))| match record {
                Some(r) => one_line(&r.detail),
                // Distinguish a fault that was attempted and found no
                // target from one whose point the run never reached
                // (the first fault halted the machine first).
                None if fault.kind.is_bus_level() => {
                    if bus_state.armed.iter().any(|&(p, _)| p == position) {
                        format!("no applicable transaction for {}", fault.kind.label())
                    } else {
                        format!("not reached for {}", fault.kind.label())
                    }
                }
                None if obs.injected[position].is_none() => {
                    format!("not reached for {}", fault.kind.label())
                }
                None => format!("no target for {}", fault.kind.label()),
            })
            .collect();
        format!("{} [{}]", detail, records.join(" + "))
    } else {
        detail
    };

    RunResult {
        outcome,
        applied,
        detections,
        corrections,
        detail,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{Org, PlannedFault};
    use crate::workload::WorkloadShape;
    use vrcache::config::DataProtection;

    fn spec(org: Org, kind: FaultKind, parity: bool) -> Spec {
        Spec {
            org,
            plan: vec![PlannedFault {
                kind,
                point_idx: 0,
                point: 60,
            }],
            seed: 1,
            parity,
            protection: DataProtection::None,
            shape: WorkloadShape::default(),
        }
    }

    fn pair_spec(org: Org, first: FaultKind, second: FaultKind, parity: bool) -> Spec {
        let mut s = spec(org, first, parity);
        s.plan.push(PlannedFault {
            kind: second,
            point_idx: 1,
            point: 140,
        });
        s
    }

    #[test]
    fn parity_on_v_tag_flip_is_detected() {
        let r = run(&spec(Org::Vr, FaultKind::VTagFlip, true));
        assert!(r.any_applied(), "a warm V-cache has tag targets");
        assert!(
            matches!(
                r.outcome,
                Outcome::DetectedRecovered | Outcome::DetectedFatal
            ),
            "{:?}: {}",
            r.outcome,
            r.detail
        );
        assert!(r.detections > 0);
    }

    #[test]
    fn parity_on_bus_drop_recovers_via_nack() {
        let r = run(&spec(Org::Vr, FaultKind::BusDropTxn, true));
        assert!(r.any_applied(), "the workload issues bus traffic");
        assert_eq!(r.outcome, Outcome::DetectedRecovered, "{}", r.detail);
    }

    #[test]
    fn runs_are_deterministic() {
        for kind in [FaultKind::VTagFlip, FaultKind::BusDropTxn] {
            let s = spec(Org::Vr, kind, true);
            let a = run(&s);
            let b = run(&s);
            assert_eq!(a.outcome, b.outcome);
            assert_eq!(a.detail, b.detail);
        }
    }

    #[test]
    fn structure_less_kind_is_not_applicable() {
        // Goodman has no write buffer at all.
        let r = run(&spec(Org::Goodman, FaultKind::WriteBufferDrop, true));
        assert_eq!(r.outcome, Outcome::NotApplicable);
        assert!(!r.any_applied());
    }

    #[test]
    fn secded_correction_is_classified_detected_corrected() {
        // Every organization's data words go through the one shared
        // SECDED path, at both levels.
        for org in Org::ALL {
            for kind in [FaultKind::VDataBit, FaultKind::RDataBit] {
                let mut s = spec(org, kind, true);
                s.protection = DataProtection::Secded;
                let r = run(&s);
                let case = format!("{} {kind}: {}", org.label(), r.detail);
                if org == Org::Goodman && kind == FaultKind::RDataBit {
                    // No second-level data array to hit.
                    assert_eq!(r.outcome, Outcome::NotApplicable, "{case}");
                    continue;
                }
                assert!(r.any_applied(), "a warm hierarchy has data targets: {case}");
                assert_eq!(r.outcome, Outcome::DetectedCorrected, "{case}");
                assert!(r.corrections > 0, "{case}");
                assert!(r.detail.contains("corrected in place"), "{case}");
            }
        }
    }

    #[test]
    fn unprotected_data_bit_reaches_the_oracle() {
        let r = run(&spec(Org::Vr, FaultKind::VDataBit, false));
        assert!(r.any_applied());
        // With no data protection the flipped word either surfaces as a
        // stale read or is overwritten before anyone loads it.
        assert!(
            matches!(r.outcome, Outcome::Sdc | Outcome::Masked),
            "{:?}: {}",
            r.outcome,
            r.detail
        );
    }

    #[test]
    fn pair_applies_both_faults_in_plan_order() {
        let s = pair_spec(Org::Vr, FaultKind::VTagFlip, FaultKind::CohStateFlip, true);
        let r = run(&s);
        assert_eq!(r.applied.len(), 2);
        assert!(r.applied[0].is_some(), "{}", r.detail);
        assert!(r.applied[1].is_some(), "{}", r.detail);
        assert!(r.detail.contains(" + "), "{}", r.detail);
        let again = run(&s);
        assert_eq!(r.outcome, again.outcome);
        assert_eq!(r.detail, again.detail);
    }

    #[test]
    fn pair_with_one_dead_fault_still_runs_the_other() {
        // Goodman has no write buffer: the first fault cannot land, the
        // second still must.
        let s = pair_spec(
            Org::Goodman,
            FaultKind::WriteBufferDrop,
            FaultKind::VTagFlip,
            true,
        );
        let r = run(&s);
        assert!(r.applied[0].is_none());
        assert!(r.applied[1].is_some(), "{}", r.detail);
        assert_ne!(r.outcome, Outcome::NotApplicable);
        assert!(r.detail.contains("no target for write-buffer-drop"));
    }
}
