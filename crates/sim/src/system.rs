//! The shared-bus multiprocessor system.

use core::fmt;

use vrcache::bus_api::BusRequest;
use vrcache::config::HierarchyConfig;
use vrcache::events::HierarchyEvents;
use vrcache::hierarchy::CacheHierarchy;
use vrcache::rr::{InclusionMode, RrHierarchy};
use vrcache::vr::VrHierarchy;
use vrcache_bus::oracle::{CoherenceViolation, VersionOracle};
use vrcache_bus::stats::BusStats;
use vrcache_cache::geometry::BlockId;
use vrcache_cache::stats::CacheStats;
use vrcache_mem::access::CpuId;
use vrcache_mem::addr::{Asid, Vpn};
use vrcache_trace::record::TraceEvent;
use vrcache_trace::trace::Trace;

use crate::machine::Machine;

/// Which hierarchy organization every processor of the system uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HierarchyKind {
    /// The paper's virtual-real hierarchy.
    Vr,
    /// The real-real baseline with inclusion.
    RrInclusive,
    /// The real-real baseline without inclusion.
    RrNonInclusive,
    /// Goodman's single-level dual-tag virtual cache (no second level) —
    /// the prior scheme the paper's introduction positions against.
    GoodmanSingleLevel,
}

impl HierarchyKind {
    /// All kinds, in the order of the paper's Tables 11–13 columns.
    pub const ALL: [HierarchyKind; 4] = [
        HierarchyKind::Vr,
        HierarchyKind::RrInclusive,
        HierarchyKind::RrNonInclusive,
        HierarchyKind::GoodmanSingleLevel,
    ];

    /// Short label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            HierarchyKind::Vr => "VR",
            HierarchyKind::RrInclusive => "RR(incl)",
            HierarchyKind::RrNonInclusive => "RR(no incl)",
            HierarchyKind::GoodmanSingleLevel => "Goodman 1-level",
        }
    }
}

impl fmt::Display for HierarchyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// Errors surfaced by a simulation run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A processor observed stale data — a protocol bug.
    Coherence(CoherenceViolation),
    /// A structural invariant (inclusion, pointer symmetry, ...) broke.
    Invariant(String),
    /// A trace event named a CPU outside the system.
    UnknownCpu(CpuId),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Coherence(v) => write!(f, "coherence violation: {v}"),
            SimError::Invariant(s) => write!(f, "invariant violation: {s}"),
            SimError::UnknownCpu(c) => write!(f, "trace references unknown {c}"),
        }
    }
}

impl std::error::Error for SimError {}

impl From<CoherenceViolation> for SimError {
    fn from(v: CoherenceViolation) -> Self {
        SimError::Coherence(v)
    }
}

/// Per-reference outcome tallies of a run, folded from the cache
/// statistics and hierarchy event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// References that hit in the first level.
    pub l1_hits: u64,
    /// References that missed L1 and hit L2.
    pub l2_hits: u64,
    /// References that missed both levels.
    pub misses: u64,
    /// Of the L2 hits, synonym resolutions in place.
    pub synonym_sameset: u64,
    /// Of the L2 hits, synonym moves between sets.
    pub synonym_move: u64,
    /// TLB misses on the miss path.
    pub tlb_misses: u64,
}

/// Aggregate results of one [`System::run_trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// References replayed.
    pub refs: u64,
    /// Context switches replayed.
    pub context_switches: u64,
    /// System-wide first-level hit ratio.
    pub h1: f64,
    /// System-wide *local* second-level hit ratio (hits over first-level
    /// misses that reached it) — the `h2` of the paper's equation.
    pub h2_local: f64,
    /// First-level statistics summed over CPUs.
    pub l1: CacheStats,
    /// Second-level statistics summed over CPUs.
    pub l2: CacheStats,
    /// Bus traffic.
    pub bus: BusStats,
    /// Per-reference outcome tallies.
    pub outcomes: OutcomeCounts,
}

impl RunSummary {
    /// The average access time of this run under the paper's analytic
    /// model: `h1*t1 + (1-h1)*h2*t2 + (1-h1)*(1-h2)*tm`, using the measured
    /// hit ratios. This is exactly how the paper turns Table 6 into
    /// Figures 4–6.
    pub fn avg_access_time(&self, model: vrcache::timing::AccessTimeModel) -> f64 {
        model.avg_access_time(self.h1, self.h2_local)
    }
}

/// A shared-bus multiprocessor: a [`Machine`] whose CPUs all run one
/// organization, plus the bookkeeping of a trace replay.
pub struct System {
    kind: HierarchyKind,
    machine: Machine<dyn CacheHierarchy>,
    l1_block_bytes: u64,
    l2_block_bytes: u64,
    check_invariants_every: Option<u64>,
    refs_run: u64,
    switches_run: u64,
}

impl System {
    /// Builds a system of `cpus` processors, each with a fresh hierarchy of
    /// the given kind and configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cpus` is zero.
    pub fn new(kind: HierarchyKind, cpus: u16, cfg: &HierarchyConfig) -> System {
        assert!(cpus > 0, "a system needs at least one cpu");
        let hierarchies = (0..cpus).map(|c| -> Box<dyn CacheHierarchy> {
            let cpu = CpuId::new(c);
            match kind {
                HierarchyKind::Vr => Box::new(VrHierarchy::new(cpu, cfg)),
                HierarchyKind::RrInclusive => {
                    Box::new(RrHierarchy::new(cpu, cfg, InclusionMode::Inclusive))
                }
                HierarchyKind::RrNonInclusive => {
                    Box::new(RrHierarchy::new(cpu, cfg, InclusionMode::NonInclusive))
                }
                HierarchyKind::GoodmanSingleLevel => {
                    Box::new(vrcache::goodman::GoodmanHierarchy::new(cpu, cfg))
                }
            }
        });
        System {
            kind,
            machine: Machine::new(hierarchies, cfg.subblocks()),
            l1_block_bytes: cfg.l1.block_bytes(),
            l2_block_bytes: cfg.l2.block_bytes(),
            check_invariants_every: None,
            refs_run: 0,
            switches_run: 0,
        }
    }

    /// Enables invariant checking: after every `every`-th reference, and
    /// after every context switch, TLB shootdown and DMA operation.
    /// Slows the simulation; intended for tests.
    #[must_use]
    pub fn with_invariant_checks(mut self, every: u64) -> Self {
        self.check_invariants_every = Some(every.max(1));
        self
    }

    /// The organization this system runs.
    pub fn kind(&self) -> HierarchyKind {
        self.kind
    }

    /// Number of processors.
    pub fn cpus(&self) -> usize {
        self.machine.cpus()
    }

    /// The hierarchy of one processor.
    ///
    /// # Panics
    ///
    /// Panics if `cpu` is out of range.
    pub fn hierarchy(&self, cpu: CpuId) -> &dyn CacheHierarchy {
        self.machine.get(cpu).expect("cpu in range")
    }

    /// Event counters of one processor's hierarchy.
    pub fn events(&self, cpu: CpuId) -> &HierarchyEvents {
        self.hierarchy(cpu).events()
    }

    /// Bus traffic counters.
    pub fn bus_stats(&self) -> &BusStats {
        &self.machine.bus_stats
    }

    /// Write-buffer statistics of one processor's hierarchy.
    pub fn write_buffer_stats(&self, cpu: CpuId) -> vrcache_cache::write_buffer::WriteBufferStats {
        self.hierarchy(cpu).write_buffer_stats()
    }

    /// The coherence oracle (exposed for tests).
    pub fn oracle(&self) -> &VersionOracle {
        &self.machine.oracle
    }

    /// Replays every event of `trace`.
    ///
    /// # Errors
    ///
    /// Fails fast on the first coherence violation, invariant break, or
    /// out-of-range CPU.
    pub fn run_trace(&mut self, trace: &Trace) -> Result<RunSummary, SimError> {
        self.run_events(trace.iter())?;
        Ok(self.summary())
    }

    /// Replays a stream of events (may be called repeatedly; statistics
    /// accumulate): a loop over [`step`](Self::step).
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_trace`](Self::run_trace).
    pub fn run_events<'a, I>(&mut self, events: I) -> Result<(), SimError>
    where
        I: IntoIterator<Item = &'a TraceEvent>,
    {
        for event in events {
            self.step(event)?;
        }
        Ok(())
    }

    /// Replays one event — the per-event entry point a streaming source
    /// (such as the trace codec's `Decoder`) feeds directly.
    ///
    /// # Errors
    ///
    /// Same conditions as [`run_trace`](Self::run_trace).
    pub fn step(&mut self, event: &TraceEvent) -> Result<(), SimError> {
        match event {
            TraceEvent::Access(a) => {
                // Only the error matters here: dropping the outcome
                // inside the closure keeps it off the return path.
                self.machine
                    .with_bus(a.cpu, None, |h, bus, oracle| {
                        h.access(a, bus, oracle).map(|_| ())
                    })
                    .ok_or(SimError::UnknownCpu(a.cpu))??;
                self.refs_run += 1;
                let refs = self.refs_run;
                self.check_if(|every| refs.is_multiple_of(every))
            }
            TraceEvent::ContextSwitch { cpu, from, to } => {
                self.machine
                    .get_mut(*cpu)
                    .ok_or(SimError::UnknownCpu(*cpu))?
                    .context_switch(*from, *to);
                self.switches_run += 1;
                self.check_if(|_| true)
            }
        }
    }

    /// Checks every hierarchy's invariants if checks are armed and `due`
    /// for their period (every event but a reference is always due).
    fn check_if(&self, due: impl FnOnce(u64) -> bool) -> Result<(), SimError> {
        match self.check_invariants_every {
            Some(every) if due(every) => self.check_invariants().map_err(SimError::Invariant),
            _ => Ok(()),
        }
    }

    /// A direct-memory-access **write**: an I/O device deposits `bytes`
    /// bytes of fresh data at physical address `paddr`, invalidating every
    /// cached copy first — the paper's point is that this is handled
    /// entirely at the physically-addressed second level, which forwards
    /// an invalidation to a V-cache only when its inclusion bit is set.
    ///
    /// # Errors
    ///
    /// An invariant violation the write left, when checks are armed.
    pub fn dma_write(&mut self, paddr: u64, bytes: u64) -> Result<(), SimError> {
        let subblocks = u64::from(self.machine.subblocks());
        for l2_block in self.l2_blocks(paddr, bytes) {
            let block = BlockId::new(l2_block);
            self.machine
                .issue_as(DMA_AGENT, BusRequest::Invalidate { block });
            // Fresh device data, one version per L1-sized granule.
            let base = l2_block * subblocks;
            for g in (base..base + subblocks).map(BlockId::new) {
                let v = self.machine.oracle.on_write(DMA_AGENT, g);
                self.machine.memory.write(g, v);
            }
        }
        self.check_if(|_| true)
    }

    /// A direct-memory-access **read**: an I/O device reads `bytes` bytes
    /// at physical address `paddr` and must observe the newest data — a
    /// dirty owner flushes through the normal coherence path.
    ///
    /// # Errors
    ///
    /// Returns a coherence violation if the device would have read stale
    /// data (a protocol bug), or an invariant violation if checks are armed.
    pub fn dma_read(&mut self, paddr: u64, bytes: u64) -> Result<(), SimError> {
        let subblocks = self.machine.subblocks();
        for l2_block in self.l2_blocks(paddr, bytes) {
            let block = BlockId::new(l2_block);
            let response = self
                .machine
                .issue_as(DMA_AGENT, BusRequest::ReadMiss { block, subblocks });
            let base = l2_block * u64::from(subblocks);
            for (g, v) in (base..).map(BlockId::new).zip(response.granule_versions) {
                self.machine.oracle.check_read(DMA_AGENT, g, v)?;
            }
        }
        self.check_if(|_| true)
    }

    /// The second-level blocks `bytes` bytes at `paddr` touch.
    fn l2_blocks(&self, paddr: u64, bytes: u64) -> std::ops::RangeInclusive<u64> {
        paddr / self.l2_block_bytes..=(paddr + bytes.max(1) - 1) / self.l2_block_bytes
    }

    /// The first-level block size (exposed for DMA-granularity math in
    /// tests and examples).
    pub fn l1_block_bytes(&self) -> u64 {
        self.l1_block_bytes
    }

    /// Broadcasts a TLB shootdown for `(asid, vpn)` to every hierarchy —
    /// the operating system is about to change that translation. Returns
    /// the total number of first-level lines disturbed across the system
    /// (the paper's claim: for the V-R organization this is bounded by the
    /// page's footprint, and the TLB itself lives at the unhurried second
    /// level).
    ///
    /// # Errors
    ///
    /// An invariant violation the shootdown left, when checks are armed.
    pub fn tlb_shootdown(&mut self, asid: Asid, vpn: Vpn) -> Result<u32, SimError> {
        let disturbed = (0..self.machine.cpus())
            .map(|i| {
                self.machine
                    .with_bus(CpuId::new(i as u16), None, |h, bus, _| {
                        h.tlb_shootdown(asid, vpn, bus)
                    })
                    .unwrap_or(0)
            })
            .sum();
        self.check_if(|_| true)?;
        Ok(disturbed)
    }

    /// Checks every hierarchy's structural invariants.
    ///
    /// # Errors
    ///
    /// Returns the first violation's description.
    pub fn check_invariants(&self) -> Result<(), String> {
        for h in self.machine.iter() {
            h.check_invariants()
                .map_err(|e| format!("{}: {e}", h.cpu()))?;
        }
        Ok(())
    }

    /// The aggregate results so far: a fold over every hierarchy's
    /// cache statistics and event counters.
    pub fn summary(&self) -> RunSummary {
        let mut l1 = CacheStats::default();
        let mut l2 = CacheStats::default();
        let mut outcomes = OutcomeCounts::default();
        for h in self.machine.iter() {
            l1.merge(&h.l1_stats());
            l2.merge(&h.l2_stats());
            let e = h.events();
            outcomes.synonym_sameset += e.synonym_sameset;
            outcomes.synonym_move += e.synonym_move;
            outcomes.tlb_misses += e.tlb_misses;
        }
        outcomes.l1_hits = l1.hits();
        outcomes.l2_hits = l2.hits();
        outcomes.misses = l1.misses() - l2.hits();
        RunSummary {
            refs: self.refs_run,
            context_switches: self.switches_run,
            h1: l1.hit_ratio(),
            h2_local: l2.hit_ratio(),
            l1,
            l2,
            bus: self.machine.bus_stats,
            outcomes,
        }
    }
}

impl fmt::Debug for System {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("System")
            .field("kind", &self.kind)
            .field("cpus", &self.machine.cpus())
            .field("refs_run", &self.refs_run)
            .finish_non_exhaustive()
    }
}

/// The pseudo-CPU identity DMA transactions carry on the bus (devices are
/// not processors; the id only needs to differ from every real CPU).
pub const DMA_AGENT: CpuId = CpuId::new(u16::MAX);

#[cfg(test)]
mod tests {
    use super::*;
    use vrcache_trace::presets::TracePreset;
    use vrcache_trace::synth::{generate, WorkloadConfig};

    fn small_cfg() -> HierarchyConfig {
        HierarchyConfig::direct_mapped(1024, 16 * 1024, 16).unwrap()
    }

    fn small_trace(cpus: u16, refs: u64, switches: u64) -> Trace {
        generate(&WorkloadConfig {
            cpus,
            total_refs: refs,
            context_switches: switches,
            p_shared: 0.1,
            p_synonym_alias: 0.2,
            ..WorkloadConfig::default()
        })
    }

    #[test]
    fn vr_system_runs_clean_with_invariants() {
        let trace = small_trace(2, 20_000, 4);
        let mut sys = System::new(HierarchyKind::Vr, 2, &small_cfg()).with_invariant_checks(500);
        let run = sys.run_trace(&trace).unwrap();
        assert_eq!(run.refs, 20_000);
        assert_eq!(run.context_switches, 4);
        assert!(run.h1 > 0.3, "h1 = {}", run.h1);
        assert!(sys.oracle().checks() > 0);
        sys.check_invariants().unwrap();
    }

    #[test]
    fn all_kinds_run_the_same_trace_clean() {
        let trace = small_trace(4, 24_000, 8);
        for kind in HierarchyKind::ALL {
            let mut sys = System::new(kind, 4, &small_cfg()).with_invariant_checks(1000);
            let run = sys.run_trace(&trace).unwrap_or_else(|e| {
                panic!("{kind}: {e}");
            });
            assert_eq!(run.refs, 24_000, "{kind}");
        }
    }

    #[test]
    fn preset_trace_runs_on_vr() {
        let trace = TracePreset::Abaqus.generate_scaled(0.01);
        let mut sys = System::new(HierarchyKind::Vr, trace.cpus(), &small_cfg());
        let run = sys.run_trace(&trace).unwrap();
        assert!(run.context_switches > 0);
        sys.check_invariants().unwrap();
    }

    #[test]
    fn synonym_traffic_is_exercised() {
        let trace = small_trace(2, 40_000, 0);
        let mut sys = System::new(HierarchyKind::Vr, 2, &small_cfg());
        sys.run_trace(&trace).unwrap();
        let total_synonyms: u64 = (0..2).map(|c| sys.events(CpuId::new(c)).synonyms()).sum();
        assert!(total_synonyms > 0, "workload must exercise synonyms");
    }

    #[test]
    fn shielding_orders_coherence_messages() {
        // VR and RR(incl) must both see far fewer L1 coherence messages
        // than RR(no incl) on a sharing-heavy trace.
        let trace = small_trace(4, 60_000, 0);
        let mut msgs = std::collections::HashMap::new();
        for kind in HierarchyKind::ALL {
            let mut sys = System::new(kind, 4, &small_cfg());
            sys.run_trace(&trace).unwrap();
            let m: u64 = (0..4)
                .map(|c| sys.events(CpuId::new(c)).l1_coherence_messages())
                .sum();
            msgs.insert(kind, m);
        }
        assert!(
            msgs[&HierarchyKind::Vr] < msgs[&HierarchyKind::RrNonInclusive],
            "vr {} vs no-incl {}",
            msgs[&HierarchyKind::Vr],
            msgs[&HierarchyKind::RrNonInclusive]
        );
        assert!(msgs[&HierarchyKind::RrInclusive] < msgs[&HierarchyKind::RrNonInclusive]);
    }

    #[test]
    fn stepping_each_event_matches_run_trace() {
        let trace = small_trace(2, 6_000, 3);
        let mut whole = System::new(HierarchyKind::Vr, 2, &small_cfg());
        let expected = whole.run_trace(&trace).unwrap();
        let mut stepped = System::new(HierarchyKind::Vr, 2, &small_cfg());
        for event in &trace {
            stepped.step(event).unwrap();
        }
        assert_eq!(stepped.summary(), expected);
        assert_eq!(stepped.oracle().snapshot(), whole.oracle().snapshot());
    }

    #[test]
    fn unknown_cpu_is_reported() {
        let trace = small_trace(4, 100, 0);
        let mut sys = System::new(HierarchyKind::Vr, 2, &small_cfg());
        let err = sys.run_trace(&trace).unwrap_err();
        assert!(matches!(err, SimError::UnknownCpu(_)));
    }

    #[test]
    fn summary_accumulates_across_runs() {
        let trace = small_trace(2, 5_000, 0);
        let mut sys = System::new(HierarchyKind::Vr, 2, &small_cfg());
        sys.run_trace(&trace).unwrap();
        let first = sys.summary().l1.overall().total();
        sys.run_trace(&trace).unwrap();
        assert_eq!(sys.summary().l1.overall().total(), first * 2);
    }

    #[test]
    fn outcome_counts_partition_the_references() {
        // The summary folds its outcome counts from the cache statistics
        // and event counters. Replaying through `Machine::access` while
        // tallying every outcome by hand must give the same numbers.
        // Heavy sharing and aliasing keep the synonym count far from zero.
        use vrcache::hierarchy::SynonymKind;
        let trace = generate(&WorkloadConfig {
            cpus: 2,
            total_refs: 12_000,
            context_switches: 6,
            p_shared: 0.5,
            p_synonym_alias: 0.5,
            ..WorkloadConfig::default()
        });
        let cfg = small_cfg();
        let cases = HierarchyKind::ALL
            .map(|kind| (kind, cfg.clone()))
            .into_iter()
            .chain([
                (HierarchyKind::Vr, cfg.clone().with_split_l1()),
                (HierarchyKind::Vr, cfg.clone().with_write_through()),
            ]);
        for (kind, cfg) in cases {
            let mut by_hand = System::new(kind, 2, &cfg);
            let mut o = OutcomeCounts::default();
            for event in &trace {
                let TraceEvent::Access(a) = event else {
                    by_hand.step(event).unwrap();
                    continue;
                };
                let outcome = by_hand.machine.access(a, None).unwrap().unwrap();
                if outcome.l1_hit {
                    o.l1_hits += 1;
                } else if outcome.l2_hit == Some(true) {
                    o.l2_hits += 1;
                } else {
                    o.misses += 1;
                }
                o.synonym_sameset += u64::from(outcome.synonym == Some(SynonymKind::SameSet));
                o.synonym_move += u64::from(outcome.synonym == Some(SynonymKind::Move));
                o.tlb_misses += u64::from(outcome.tlb_hit == Some(false));
            }
            let run = System::new(kind, 2, &cfg).run_trace(&trace).unwrap();
            assert_eq!(run.outcomes, o, "{kind} {cfg:?}");
            assert_eq!(o.l1_hits + o.l2_hits + o.misses, run.refs);
            if kind == HierarchyKind::Vr {
                // Synonyms happen in this aliased workload and are L2 hits.
                assert!(o.tlb_misses > 0);
                assert!(o.synonym_sameset + o.synonym_move > 0);
                assert!(o.synonym_sameset + o.synonym_move <= o.l2_hits);
            }
        }
    }

    #[test]
    fn summary_access_time_matches_equation() {
        let trace = small_trace(2, 8_000, 0);
        let mut sys = System::new(HierarchyKind::Vr, 2, &small_cfg());
        let run = sys.run_trace(&trace).unwrap();
        let m = vrcache::timing::AccessTimeModel::PAPER;
        let t = run.avg_access_time(m);
        let manual = run.h1 * m.t1
            + (1.0 - run.h1) * run.h2_local * m.t2
            + (1.0 - run.h1) * (1.0 - run.h2_local) * m.tm;
        assert!((t - manual).abs() < 1e-12);
        assert!((1.0..=16.0).contains(&t));
    }

    #[test]
    fn kind_labels() {
        assert_eq!(HierarchyKind::Vr.to_string(), "VR");
        assert_eq!(HierarchyKind::RrInclusive.to_string(), "RR(incl)");
        assert_eq!(HierarchyKind::RrNonInclusive.to_string(), "RR(no incl)");
    }
}
