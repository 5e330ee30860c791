//! Campaign enumeration: single-fault sweeps (fault kind × organization
//! × injection point × seed × protection), compositional *pair* sweeps
//! (ordered fault pairs at two injection points), and the shape grid
//! that re-keys both by [`WorkloadShape`] — plus the aggregate result.

use vrcache::config::{DataProtection, HierarchyConfig};
use vrcache::fault::FaultKind;
use vrcache::goodman::GoodmanHierarchy;
use vrcache::rr::{InclusionMode, RrHierarchy};
use vrcache::vr::VrHierarchy;
use vrcache_mem::access::CpuId;

use vrcache_exec::run_cells_observed;

use crate::harness::{self, FaultTarget, Outcome, RunResult};
use crate::workload::WorkloadShape;

/// A hierarchy organization under injection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Org {
    /// The paper's virtual-real hierarchy.
    Vr,
    /// The real-real baseline with inclusion.
    RrInclusive,
    /// The real-real baseline without inclusion.
    RrNonInclusive,
    /// Goodman's single-level dual-tag virtual cache.
    Goodman,
}

impl Org {
    /// Every organization, in report order.
    pub const ALL: [Org; 4] = [Org::Vr, Org::RrInclusive, Org::RrNonInclusive, Org::Goodman];

    /// Stable kebab-case label used in row ids.
    pub const fn label(self) -> &'static str {
        match self {
            Org::Vr => "vr",
            Org::RrInclusive => "rr-incl",
            Org::RrNonInclusive => "rr-noincl",
            Org::Goodman => "goodman",
        }
    }

    /// Builds one processor's hierarchy of this organization.
    pub(crate) fn build(self, cpu: CpuId, cfg: &HierarchyConfig) -> Box<dyn FaultTarget> {
        match self {
            Org::Vr => Box::new(VrHierarchy::new(cpu, cfg)),
            Org::RrInclusive => Box::new(RrHierarchy::new(cpu, cfg, InclusionMode::Inclusive)),
            Org::RrNonInclusive => {
                Box::new(RrHierarchy::new(cpu, cfg, InclusionMode::NonInclusive))
            }
            Org::Goodman => Box::new(GoodmanHierarchy::new(cpu, cfg)),
        }
    }
}

impl std::fmt::Display for Org {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// One planned fault of a run: what to inject and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedFault {
    /// The fault to inject.
    pub kind: FaultKind,
    /// Index of the injection point within the campaign's point list
    /// (stable in ids even if point positions are retuned).
    pub point_idx: usize,
    /// Event index at which the fault is injected/armed.
    pub point: u64,
}

/// First injection point of every pair plan: mid-warm-phase, in the
/// sharing-beat window the single campaigns also target.
pub const PAIR_POINT_A: u64 = 64;
/// Second injection point of every pair plan: just after the context
/// switch, while the first fault's consequences are still live.
pub const PAIR_POINT_B: u64 = 140;

/// One injection run to execute: everything that makes its row id.
///
/// `plan` holds one fault for the single campaigns and an ordered pair
/// for the compositional campaigns; faults are applied in plan order at
/// their own points, each with a per-position target-selection seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    /// The organization under test.
    pub org: Org,
    /// The ordered fault plan (one or two entries).
    pub plan: Vec<PlannedFault>,
    /// Workload seed, doubling as the injection's target-selection seed.
    pub seed: u64,
    /// Whether metadata parity detection + recovery is enabled.
    pub parity: bool,
    /// Protection on the V/R data arrays.
    pub protection: DataProtection,
    /// The workload shape this run replays. Non-default shapes key the
    /// row id (`/w<pages>x<refs>x<beat>`), so the pinned SDC baseline
    /// distinguishes routes by shape.
    pub shape: WorkloadShape,
}

impl Spec {
    /// The stable row id:
    /// `<org>/<kinds>/pt<idxs>/s<seed>/par=<on|off>[/dp=<prot>][/w<shape>]`.
    ///
    /// Single-fault, default-shape, unprotected-data rows render the
    /// exact legacy format (`vr/v-tag-flip/pt0/s1/par=off`), so the
    /// reviewed baseline ids survive the plan/shape generalization.
    pub fn id(&self) -> String {
        let kinds: Vec<&str> = self.plan.iter().map(|f| f.kind.label()).collect();
        let idxs: Vec<String> = self.plan.iter().map(|f| f.point_idx.to_string()).collect();
        let mut id = format!(
            "{}/{}/pt{}/s{}/par={}",
            self.org.label(),
            kinds.join("+"),
            idxs.join("+"),
            self.seed,
            if self.parity { "on" } else { "off" }
        );
        if self.protection != DataProtection::None {
            id.push_str("/dp=");
            id.push_str(self.protection.label());
        }
        if !self.shape.is_default() {
            id.push_str("/w");
            id.push_str(&self.shape.id_suffix());
        }
        id
    }

    /// Whether any planned fault targets a data array.
    pub fn has_data_fault(&self) -> bool {
        self.plan.iter().any(|f| f.kind.is_data_level())
    }

    /// The hierarchy configuration every campaign run uses: small caches
    /// relative to the workload footprint (evictions, write-buffer
    /// pressure), a 4-deep write buffer with a lazy drain so pending
    /// writes linger long enough to be injection targets.
    pub fn config(&self) -> HierarchyConfig {
        let cfg = HierarchyConfig::direct_mapped(256, 4096, 16)
            .expect("static campaign geometry is valid")
            .with_write_buffer(4)
            .with_drain_period(8)
            .with_data_protection(self.protection);
        if self.parity {
            cfg.with_parity()
        } else {
            cfg
        }
    }
}

/// One classified campaign row.
#[derive(Debug, Clone)]
pub struct CampaignRow {
    /// What was run.
    pub spec: Spec,
    /// How it ended.
    pub result: RunResult,
}

impl CampaignRow {
    /// The row's stable id.
    pub fn id(&self) -> String {
        self.spec.id()
    }
}

/// A fully enumerated campaign, ready to run.
#[derive(Debug, Clone)]
pub struct Campaign {
    /// Campaign name, echoed in the report header.
    pub name: &'static str,
    /// Every injection, in enumeration order.
    pub specs: Vec<Spec>,
}

/// The protection settings a plan sweeps. Metadata-only plans keep the
/// legacy parity on/off axis; a plan touching a data array widens the
/// "on" side to both data-protection flavors so parity-detect and
/// SECDED-correct are each exercised (and classified) separately.
fn protection_axis(kinds: &[FaultKind]) -> Vec<(bool, DataProtection)> {
    if kinds.iter().any(|k| k.is_data_level()) {
        vec![
            (true, DataProtection::Parity),
            (true, DataProtection::Secded),
            (false, DataProtection::None),
        ]
    } else {
        vec![(true, DataProtection::None), (false, DataProtection::None)]
    }
}

/// Builds the single-fault cross product for the given points and seeds
/// at one workload shape.
fn enumerate_singles(points: &[u64], seeds: &[u64], shape: WorkloadShape) -> Vec<Spec> {
    let mut specs = Vec::new();
    for org in Org::ALL {
        for kind in FaultKind::ALL {
            for (point_idx, &point) in points.iter().enumerate() {
                for &seed in seeds {
                    for (parity, protection) in protection_axis(&[kind]) {
                        specs.push(Spec {
                            org,
                            plan: vec![PlannedFault {
                                kind,
                                point_idx,
                                point,
                            }],
                            seed,
                            parity,
                            protection,
                            shape,
                        });
                    }
                }
            }
        }
    }
    specs
}

/// Builds the ordered-pair cross product over `kinds` for the given
/// seeds at one workload shape. Every pair runs the first fault at
/// [`PAIR_POINT_A`] and the second at [`PAIR_POINT_B`].
fn enumerate_pairs(kinds: &[FaultKind], seeds: &[u64], shape: WorkloadShape) -> Vec<Spec> {
    let mut specs = Vec::new();
    for org in Org::ALL {
        for &first in kinds {
            for &second in kinds {
                for &seed in seeds {
                    for (parity, protection) in protection_axis(&[first, second]) {
                        specs.push(Spec {
                            org,
                            plan: vec![
                                PlannedFault {
                                    kind: first,
                                    point_idx: 0,
                                    point: PAIR_POINT_A,
                                },
                                PlannedFault {
                                    kind: second,
                                    point_idx: 1,
                                    point: PAIR_POINT_B,
                                },
                            ],
                            seed,
                            parity,
                            protection,
                            shape,
                        });
                    }
                }
            }
        }
    }
    specs
}

/// The reduced kind set the pair *smoke* campaign composes: one
/// representative of each containment mechanism — V-cache tag parity,
/// coherence-state parity, both data arrays, and the bus NACK path.
pub const PAIR_SMOKE_KINDS: [FaultKind; 5] = [
    FaultKind::VTagFlip,
    FaultKind::CohStateFlip,
    FaultKind::VDataBit,
    FaultKind::RDataBit,
    FaultKind::BusLostInvalidate,
];

/// The non-default workload shapes the SDC-surface sweep replays, each
/// stressing a different corner of the corruption surface:
///
/// * `4x80x8` — small hot footprint, beat-heavy: maximal sharing and
///   invalidation traffic per reference;
/// * `16x160x16` — maximal page count: synonym and TLB pressure, long
///   residency for latent corruption;
/// * `8x110x64` — beat-starved: almost no cross-CPU sharing, so
///   corruption survives longest before facing the oracle.
pub const SHAPE_GRID: [WorkloadShape; 3] = [
    WorkloadShape {
        pages: 4,
        half_refs: 80,
        beat_period: 8,
    },
    WorkloadShape {
        pages: 16,
        half_refs: 160,
        beat_period: 16,
    },
    WorkloadShape {
        pages: 8,
        half_refs: 110,
        beat_period: 64,
    },
];

/// Parses the optional `/w<pages>x<refs>x<beat>` shape key from a row
/// id — the last segment, when present. `None` means the id carries no
/// shape key, i.e. the run used the default shape.
pub fn id_shape(id: &str) -> Option<WorkloadShape> {
    let last = id.rsplit('/').next()?;
    let rest = last.strip_prefix('w')?;
    let mut nums = rest.split('x');
    let (pages, half_refs, beat_period) = (nums.next()?, nums.next()?, nums.next()?);
    if nums.next().is_some() {
        return None;
    }
    Some(WorkloadShape {
        pages: pages.parse().ok()?,
        half_refs: half_refs.parse().ok()?,
        beat_period: beat_period.parse().ok()?,
    })
}

impl Campaign {
    /// The CI-sized single-fault campaign: one injection point
    /// mid-warm-phase, one seed — 13 metadata kinds × 2 parity settings
    /// plus 2 data kinds × 3 protection settings, over 4 organizations
    /// = 128 runs.
    ///
    /// Point 64 lands immediately before a sharing beat's write, while
    /// the hot line is Shared on CPU 0 — the window where a
    /// coherence-state flip grants bogus exclusivity to a line that is
    /// about to be written.
    pub fn smoke() -> Campaign {
        Campaign {
            name: "smoke",
            specs: enumerate_singles(&[64], &[1], WorkloadShape::default()),
        }
    }

    /// The exhaustive single-fault campaign: three injection points
    /// (mid-warm-phase in a sharing-beat window, just after the context
    /// switch, and the matching beat window deep in the second half)
    /// and two seeds — 768 runs.
    pub fn full() -> Campaign {
        Campaign {
            name: "full",
            specs: enumerate_singles(&[64, 140, 196], &[1, 2], WorkloadShape::default()),
        }
    }

    /// The CI-sized compositional campaign: every ordered pair drawn
    /// from [`PAIR_SMOKE_KINDS`] (first fault at event 64, second at
    /// event 140), one seed, over org × protection — 264 runs. Proves
    /// on every merge that no pair of individually-contained faults
    /// composes into a protection-on SDC.
    pub fn pairs_smoke() -> Campaign {
        Campaign {
            name: "pairs-smoke",
            specs: enumerate_pairs(&PAIR_SMOKE_KINDS, &[1], WorkloadShape::default()),
        }
    }

    /// The exhaustive compositional campaign: every ordered pair of the
    /// full fault table (15 × 15 kinds), one seed, over org × protection
    /// — 2024 runs. Nightly-sized.
    pub fn pairs_full() -> Campaign {
        Campaign {
            name: "pairs-full",
            specs: enumerate_pairs(&FaultKind::ALL, &[1], WorkloadShape::default()),
        }
    }

    /// The SDC-surface sweep: the smoke-sized single sweep *and* the
    /// smoke-sized pair sweep, replayed at every [`SHAPE_GRID`] shape —
    /// 3 × (128 + 264) = 1176 runs, every row id keyed by its shape.
    pub fn shapes() -> Campaign {
        let mut specs = Vec::new();
        for shape in SHAPE_GRID {
            specs.extend(enumerate_singles(&[64], &[1], shape));
            specs.extend(enumerate_pairs(&PAIR_SMOKE_KINDS, &[1], shape));
        }
        Campaign {
            name: "shapes",
            specs,
        }
    }

    /// The nightly matrix: the full single sweep, the full pair sweep,
    /// and the shape grid, as one campaign whose report carries the
    /// complete pinned SDC surface — 768 + 2024 + 1176 = 3968 runs.
    pub fn nightly() -> Campaign {
        let mut specs = Campaign::full().specs;
        specs.extend(Campaign::pairs_full().specs);
        specs.extend(Campaign::shapes().specs);
        Campaign {
            name: "nightly",
            specs,
        }
    }

    /// Whether this campaign's default-shape plans cover every fault
    /// kind — the precondition for the every-kind-exercised contract
    /// (reduced-kind and shape-only campaigns legitimately skip it).
    pub fn covers_all_kinds(&self) -> bool {
        FaultKind::ALL.into_iter().all(|kind| {
            self.specs
                .iter()
                .any(|s| s.shape.is_default() && s.plan.iter().any(|f| f.kind == kind))
        })
    }

    /// Runs every spec whose id contains `filter` (all when empty) over
    /// `jobs` workers of the deterministic `vrcache-exec` substrate,
    /// calling `progress` as runs complete (completion order — stderr
    /// telemetry only). The returned rows are in enumeration order for
    /// any worker count, so the rendered report is byte-identical
    /// whatever `jobs` is.
    pub fn run<F: FnMut(&RowProgress<'_>)>(
        &self,
        filter: &str,
        jobs: usize,
        mut progress: F,
    ) -> CampaignResult {
        let selected: Vec<Spec> = self
            .specs
            .iter()
            .filter(|spec| filter.is_empty() || spec.id().contains(filter))
            .cloned()
            .collect();
        let results = run_cells_observed(
            jobs,
            &selected,
            |_, spec| harness::run(spec),
            |event| {
                let result = match event.result {
                    Ok(result) => result.clone(),
                    Err(failure) => harness_escape(failure),
                };
                progress(&RowProgress {
                    row: &CampaignRow {
                        spec: selected[event.index].clone(),
                        result,
                    },
                    done: event.done,
                    total: event.total,
                    duration: event.duration,
                });
            },
        );
        let rows = selected
            .iter()
            .zip(results)
            .map(|(spec, cell)| CampaignRow {
                spec: spec.clone(),
                result: match cell.result {
                    Ok(result) => result,
                    Err(failure) => harness_escape(&failure),
                },
            })
            .collect();
        CampaignResult {
            name: self.name,
            rows,
        }
    }
}

/// Classifies a panic that escaped the harness's own `catch_unwind`
/// (a harness bug, not an injected fault — the harness catches those).
/// The run failed loudly, so it lands in the detected-fatal bucket with
/// a detail that names the escape; the message is deterministic, so the
/// report stays byte-stable.
fn harness_escape(failure: &vrcache_exec::CellFailure) -> RunResult {
    RunResult {
        outcome: Outcome::DetectedFatal,
        applied: Vec::new(),
        detections: 0,
        corrections: 0,
        detail: format!("harness escape: {failure}"),
    }
}

/// Progress for one completed injection, delivered in completion order.
#[derive(Debug)]
pub struct RowProgress<'a> {
    /// The completed row.
    pub row: &'a CampaignRow,
    /// Runs finished so far (1-based).
    pub done: usize,
    /// Runs selected by the filter.
    pub total: usize,
    /// Wall-clock duration of this run (instrumentation only).
    pub duration: std::time::Duration,
}

/// The classified rows of one campaign run.
#[derive(Debug, Clone)]
pub struct CampaignResult {
    /// The campaign that produced these rows.
    pub name: &'static str,
    /// One row per executed spec, in enumeration order.
    pub rows: Vec<CampaignRow>,
}

impl CampaignResult {
    /// Row count per outcome, in [`Outcome::ALL`] order.
    pub fn counts(&self) -> [(Outcome, u64); 6] {
        let mut counts = Outcome::ALL.map(|o| (o, 0));
        for row in &self.rows {
            for entry in counts.iter_mut() {
                if entry.0 == row.result.outcome {
                    entry.1 += 1;
                }
            }
        }
        counts
    }

    /// Ids of silent-data-corruption rows, optionally restricted to one
    /// parity setting, sorted.
    pub fn sdc_ids(&self, parity: Option<bool>) -> Vec<String> {
        let mut ids: Vec<String> = self
            .rows
            .iter()
            .filter(|r| r.result.outcome == Outcome::Sdc)
            .filter(|r| parity.is_none_or(|p| r.spec.parity == p))
            .map(|r| r.id())
            .collect();
        ids.sort();
        ids
    }

    /// Fault kinds that never landed on a live target anywhere in the
    /// campaign — every kind must corrupt something at least once for
    /// the sweep to mean anything. A kind counts as exercised only when
    /// its own plan position carries an applied record (a pair partner
    /// landing is not enough).
    pub fn unexercised_kinds(&self) -> Vec<FaultKind> {
        FaultKind::ALL
            .into_iter()
            .filter(|&kind| {
                !self.rows.iter().any(|r| {
                    r.spec
                        .plan
                        .iter()
                        .zip(r.result.applied.iter())
                        .any(|(f, a)| f.kind == kind && a.is_some())
                })
            })
            .collect()
    }

    /// Data-protection settings under which no data fault ever landed —
    /// a protection variant no campaign exercises is a dead knob, the
    /// same way an unexercised fault kind is dead weight.
    pub fn unexercised_protections(&self) -> Vec<DataProtection> {
        DataProtection::ALL
            .into_iter()
            .filter(|&p| {
                !self.rows.iter().any(|r| {
                    r.spec.protection == p
                        && r.spec
                            .plan
                            .iter()
                            .zip(r.result.applied.iter())
                            .any(|(f, a)| f.kind.is_data_level() && a.is_some())
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_enumerates_the_widened_cross_product() {
        let c = Campaign::smoke();
        // 13 metadata kinds × 2 parity settings + 2 data kinds × 3
        // protection settings, over 4 organizations.
        assert_eq!(c.specs.len(), (13 * 2 + 2 * 3) * 4);
        let ids: std::collections::BTreeSet<String> = c.specs.iter().map(|s| s.id()).collect();
        assert_eq!(ids.len(), c.specs.len(), "ids are unique");
        // Legacy single-fault ids are preserved byte for byte.
        assert!(ids.contains("vr/v-tag-flip/pt0/s1/par=on"));
        assert!(ids.contains("goodman/bus-lost-invalidate/pt0/s1/par=off"));
        // Data rows key their protection flavor.
        assert!(ids.contains("vr/v-data-bit/pt0/s1/par=on/dp=parity"));
        assert!(ids.contains("vr/r-data-bit/pt0/s1/par=on/dp=secded"));
        assert!(ids.contains("vr/v-data-bit/pt0/s1/par=off"));
        assert!(c.covers_all_kinds());
    }

    #[test]
    fn full_is_a_superset_shape() {
        let c = Campaign::full();
        assert_eq!(c.specs.len(), (13 * 2 + 2 * 3) * 4 * 3 * 2);
    }

    #[test]
    fn pair_campaigns_enumerate_ordered_pairs() {
        let c = Campaign::pairs_smoke();
        // 5×5 ordered pairs; 16 involve a data kind (3 protection
        // settings), 9 do not (2 parity settings), over 4 organizations.
        assert_eq!(c.specs.len(), (16 * 3 + 9 * 2) * 4);
        let ids: std::collections::BTreeSet<String> = c.specs.iter().map(|s| s.id()).collect();
        assert_eq!(ids.len(), c.specs.len(), "pair ids are unique");
        assert!(ids.contains("vr/v-tag-flip+coh-state-flip/pt0+1/s1/par=on"));
        assert!(ids.contains("vr/v-data-bit+r-data-bit/pt0+1/s1/par=on/dp=secded"));
        // Ordered: (a,b) and (b,a) are distinct runs.
        assert!(ids.contains("vr/coh-state-flip+v-tag-flip/pt0+1/s1/par=on"));
        assert!(!c.covers_all_kinds(), "the smoke pair kind set is reduced");

        let full = Campaign::pairs_full();
        let data = FaultKind::ALL.iter().filter(|k| k.is_data_level()).count();
        let meta = FaultKind::ALL.len() - data;
        let with_data = FaultKind::ALL.len().pow(2) - meta.pow(2);
        assert_eq!(full.specs.len(), (with_data * 3 + meta.pow(2) * 2) * 4);
        assert!(full.covers_all_kinds());
    }

    #[test]
    fn shape_grid_keys_every_id() {
        let c = Campaign::shapes();
        assert_eq!(
            c.specs.len(),
            SHAPE_GRID.len()
                * (Campaign::smoke().specs.len() + Campaign::pairs_smoke().specs.len())
        );
        assert!(c.specs.iter().all(|s| !s.shape.is_default()));
        assert!(c.specs.iter().all(|s| s.id().contains("/w")));
    }

    #[test]
    fn id_shape_parses_only_a_real_shape_key() {
        assert_eq!(
            id_shape("vr/v-tag-flip/pt0/s1/par=off/w4x80x8"),
            Some(WorkloadShape {
                pages: 4,
                half_refs: 80,
                beat_period: 8,
            })
        );
        // No key, a protection key, and — crucially — a kind whose
        // label starts with `w` must all read as default-shape.
        assert_eq!(id_shape("vr/v-tag-flip/pt0/s1/par=off"), None);
        assert_eq!(id_shape("vr/v-data-bit/pt0/s1/par=on/dp=secded"), None);
        assert_eq!(
            id_shape("vr/write-buffer-drop+bus-lost-invalidate/pt0+1/s1/par=off"),
            None
        );
    }

    #[test]
    fn nightly_concatenates_the_three_sweeps() {
        let c = Campaign::nightly();
        assert_eq!(
            c.specs.len(),
            Campaign::full().specs.len()
                + Campaign::pairs_full().specs.len()
                + Campaign::shapes().specs.len()
        );
        let ids: std::collections::BTreeSet<String> = c.specs.iter().map(|s| s.id()).collect();
        assert_eq!(ids.len(), c.specs.len(), "no overlap between the sweeps");
    }

    #[test]
    fn filter_restricts_runs() {
        let result = Campaign::smoke().run("vr/tlb-entry-flip", 1, |_| {});
        assert_eq!(result.rows.len(), 2, "par=on and par=off");
        assert!(result
            .rows
            .iter()
            .all(|r| r.id().contains("tlb-entry-flip")));
    }

    #[test]
    fn worker_count_never_changes_the_rows() {
        let campaign = Campaign::smoke();
        let baseline = campaign.run("vr/v-tag-flip", 1, |_| {});
        for jobs in [2, 8] {
            let mut seen = 0;
            let parallel = campaign.run("vr/v-tag-flip", jobs, |p| {
                seen += 1;
                assert_eq!(p.total, baseline.rows.len());
            });
            assert_eq!(seen, baseline.rows.len());
            let pairs = baseline.rows.iter().zip(&parallel.rows);
            for (a, b) in pairs {
                assert_eq!(a.id(), b.id(), "jobs={jobs}");
                assert_eq!(a.result.outcome, b.result.outcome, "jobs={jobs}");
                assert_eq!(a.result.detail, b.result.detail, "jobs={jobs}");
            }
        }
    }
}
