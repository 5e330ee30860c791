//! In-process replays of one trace on one organization: untraced through
//! the shipped `System`, and traced through the public `SnoopingBus` with
//! every hierarchy wrapped in a [`TimedHier`]. Both fold into the same
//! [`SimStats`] record, so their digests can be compared.

use std::time::Duration;

use criterion::time_fn;
use vrcache::config::HierarchyConfig;
use vrcache::events::HierarchyEvents;
use vrcache::goodman::GoodmanHierarchy;
use vrcache::hierarchy::{CacheHierarchy, SynonymKind};
use vrcache::rr::{InclusionMode, RrHierarchy};
use vrcache::vr::VrHierarchy;
use vrcache_bus::memory::MainMemory;
use vrcache_bus::oracle::VersionOracle;
use vrcache_bus::stats::BusStats;
use vrcache_cache::stats::CacheStats;
use vrcache_cache::write_buffer::WriteBufferStats;
use vrcache_mem::access::CpuId;
use vrcache_sim::snoop::SnoopingBus;
use vrcache_sim::system::{HierarchyKind, OutcomeCounts, System};
use vrcache_trace::record::TraceEvent;
use vrcache_trace::trace::Trace;

use crate::timed::TimedHier;

/// One organization: its `HierarchyKind`, the name used in metric names,
/// and the `vrsim run --kind` value.
#[derive(Debug, Clone, Copy)]
pub struct Org {
    /// The simulated organization.
    pub kind: HierarchyKind,
    /// Metric-name label (`core.<label>.snoop_s`).
    pub label: &'static str,
    /// `vrsim run --kind` flag value.
    pub vrsim_kind: &'static str,
}

/// The four organizations, in the paper's Tables 11–13 column order.
pub const ORGS: [Org; 4] = [
    Org {
        kind: HierarchyKind::Vr,
        label: "vr",
        vrsim_kind: "vr",
    },
    Org {
        kind: HierarchyKind::RrInclusive,
        label: "rr_incl",
        vrsim_kind: "rr",
    },
    Org {
        kind: HierarchyKind::RrNonInclusive,
        label: "rr_noincl",
        vrsim_kind: "rr-noincl",
    },
    Org {
        kind: HierarchyKind::GoodmanSingleLevel,
        label: "goodman",
        vrsim_kind: "goodman",
    },
];

/// The `vrsim run` default geometry: 16 KiB V / 256 KiB R, direct-mapped,
/// 16-byte blocks.
pub fn vrsim_default_config() -> HierarchyConfig {
    HierarchyConfig::direct_mapped(16 * 1024, 256 * 1024, 16)
        .expect("the vrsim default geometry is valid")
}

/// Every simulated statistic of one organization run; the digest covers
/// all of it. A speed-only change must leave it identical.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    /// References replayed.
    pub refs: u64,
    /// Context switches replayed.
    pub switches: u64,
    /// First-level statistics summed over CPUs.
    pub l1: CacheStats,
    /// Second-level statistics summed over CPUs.
    pub l2: CacheStats,
    /// Bus traffic.
    pub bus: BusStats,
    /// Per-reference outcome tallies.
    pub outcomes: OutcomeCounts,
    /// Per-CPU hierarchy events.
    pub events: Vec<HierarchyEvents>,
    /// Per-CPU write-buffer statistics.
    pub write_buffers: Vec<WriteBufferStats>,
    /// Version-oracle read checks.
    pub oracle_checks: u64,
    /// Blocks the version oracle tracks (its map's size).
    pub oracle_blocks: usize,
}

impl SimStats {
    /// System-wide first-level hit ratio.
    pub fn h1(&self) -> f64 {
        self.l1.hit_ratio()
    }

    /// System-wide local second-level hit ratio.
    pub fn h2_local(&self) -> f64 {
        self.l2.hit_ratio()
    }

    /// Hex FNV-1a digest of the whole record.
    pub fn digest(&self) -> String {
        fnv1a_hex(&format!("{self:?}"))
    }
}

/// 64-bit FNV-1a of `text`, as 16 hex digits.
pub fn fnv1a_hex(text: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in text.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Reads the statistics of a finished untraced run.
pub fn system_stats(sys: &System) -> SimStats {
    let run = sys.summary();
    let cpus = (0..sys.cpus())
        .map(|c| CpuId::new(u16::try_from(c).expect("a System has at most u16::MAX cpus")));
    SimStats {
        refs: run.refs,
        switches: run.context_switches,
        l1: run.l1,
        l2: run.l2,
        bus: run.bus,
        outcomes: run.outcomes,
        events: cpus.clone().map(|c| sys.events(c).clone()).collect(),
        write_buffers: cpus.map(|c| sys.write_buffer_stats(c)).collect(),
        oracle_checks: sys.oracle().checks(),
        oracle_blocks: sys.oracle().written_blocks(),
    }
}

/// Replays `events` on `sys` in slices of `chunk` events, pushing each
/// slice's host time in milliseconds to `chunk_ms`, then checks the
/// structural invariants. Returns the summed replay time.
///
/// # Errors
///
/// The simulation error or broken invariant, rendered.
pub fn replay_untraced(
    sys: &mut System,
    events: &[TraceEvent],
    chunk: usize,
    chunk_ms: &mut Vec<f64>,
) -> Result<Duration, String> {
    let mut total = Duration::ZERO;
    for slice in events.chunks(chunk.max(1)) {
        let (result, took) = time_fn(|| sys.run_events(slice));
        result.map_err(|e| format!("simulation failed: {e}"))?;
        total += took;
        chunk_ms.push(took.as_secs_f64() * 1e3);
    }
    sys.check_invariants()
        .map_err(|e| format!("invariants failed: {e}"))?;
    Ok(total)
}

/// Host time and call counts a traced replay folded out of its wrappers.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTimes {
    /// Wall time of the replay loop, wrappers included.
    pub loop_wall: Duration,
    /// Time inside `access` (bus time included).
    pub access: Duration,
    /// Time inside `SystemBus::issue` (snoop time included).
    pub issue: Duration,
    /// Time inside `snoop`.
    pub snoop: Duration,
    /// Time inside `context_switch`.
    pub switch: Duration,
    /// `issue` calls.
    pub issues: u64,
    /// `snoop` calls.
    pub snoops: u64,
}

impl LayerTimes {
    /// Loop time outside `access` and `context_switch`.
    pub fn loop_self(&self) -> Duration {
        self.loop_wall.saturating_sub(self.access + self.switch)
    }

    /// `access` time minus its bus time.
    pub fn access_self(&self) -> Duration {
        self.access.saturating_sub(self.issue)
    }

    /// Bus time minus the snoopers' time.
    pub fn bus_self(&self) -> Duration {
        self.issue.saturating_sub(self.snoop)
    }
}

/// One span of a sampled reference's call tree. `start`/`end` are
/// logical ticks in call order: the only sanctioned clock measures
/// durations, so the host time is `dur_ns`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Index of the reference in the trace; shared by the tree's spans.
    pub ref_id: u64,
    /// Organization label.
    pub org: &'static str,
    /// Span id, unique within its tree.
    pub id: u32,
    /// The span that caused this one.
    pub parent: Option<u32>,
    /// Layer boundary: `core.access`, `sim.issue` or `core.snoop`.
    pub name: &'static str,
    /// CPU whose hierarchy ran the span (the issuer for `sim.issue`).
    pub cpu: usize,
    /// Logical entry tick.
    pub start: u32,
    /// Logical exit tick.
    pub end: u32,
    /// Host duration.
    pub dur_ns: u64,
}

fn build_hierarchy(
    kind: HierarchyKind,
    cpu: CpuId,
    cfg: &HierarchyConfig,
) -> Box<dyn CacheHierarchy> {
    match kind {
        HierarchyKind::Vr => Box::new(VrHierarchy::new(cpu, cfg)),
        HierarchyKind::RrInclusive => {
            Box::new(RrHierarchy::new(cpu, cfg, InclusionMode::Inclusive))
        }
        HierarchyKind::RrNonInclusive => {
            Box::new(RrHierarchy::new(cpu, cfg, InclusionMode::NonInclusive))
        }
        HierarchyKind::GoodmanSingleLevel => Box::new(GoodmanHierarchy::new(cpu, cfg)),
    }
}

/// Appends the span tree of the reference just serviced by `cpu`: its
/// `access`, each `issue` it made, and under each issue one `snoop` per
/// other CPU in index order (every bus request snoops every other
/// hierarchy exactly once). Ticks count span entries and exits in order.
fn push_span_tree(
    spans: &mut Vec<Span>,
    org: &'static str,
    ref_id: u64,
    cpu: usize,
    hierarchies: &[Option<Box<TimedHier>>],
    issuer: &TimedHier,
) {
    let first = spans.len();
    let next_id =
        |spans: &Vec<Span>| u32::try_from(spans.len() - first).expect("a span tree is small");
    let span = |id, parent, name, cpu, tick, took: Duration| Span {
        ref_id,
        org,
        id,
        parent,
        name,
        cpu,
        start: tick,
        end: tick,
        dur_ns: u64::try_from(took.as_nanos()).unwrap_or(u64::MAX),
    };
    let mut tick = 0;
    spans.push(span(
        0,
        None,
        "core.access",
        cpu,
        tick,
        issuer.access.recent[0],
    ));
    tick += 1;
    for k in 0..issuer.issue.logged {
        let issue_at = spans.len();
        let issue_id = next_id(spans);
        spans.push(span(
            issue_id,
            Some(0),
            "sim.issue",
            cpu,
            tick,
            issuer.issue.recent[k],
        ));
        tick += 1;
        for (j, other) in hierarchies.iter().enumerate() {
            if let Some(other) = other.as_deref().filter(|o| k < o.snoop.logged) {
                let mut snoop = span(
                    next_id(spans),
                    Some(issue_id),
                    "core.snoop",
                    j,
                    tick,
                    other.snoop.recent[k],
                );
                snoop.end = tick + 1;
                tick += 2;
                spans.push(snoop);
            }
        }
        spans[issue_at].end = tick;
        tick += 1;
    }
    spans[first].end = tick;
}

/// Replays `trace` on `org` through timed wrappers, keeping the span tree
/// of every `sample_every`-th event that is a reference.
///
/// # Errors
///
/// The simulation error or broken invariant, rendered.
pub fn replay_traced(
    org: Org,
    trace: &Trace,
    cfg: &HierarchyConfig,
    sample_every: usize,
    spans: &mut Vec<Span>,
) -> Result<(SimStats, LayerTimes), String> {
    let mut hierarchies: Vec<Option<Box<TimedHier>>> = (0..trace.cpus())
        .map(|c| {
            let inner = build_hierarchy(org.kind, CpuId::new(c), cfg);
            Some(Box::new(TimedHier::wrap(inner)))
        })
        .collect();
    let mut memory = MainMemory::new();
    let mut oracle = VersionOracle::new();
    let mut bus_stats = BusStats::default();
    let mut outcomes = OutcomeCounts::default();
    let (mut refs, mut switches) = (0u64, 0u64);
    let subblocks = cfg.subblocks();

    let (result, loop_wall) = time_fn(|| -> Result<(), String> {
        for (i, event) in trace.iter().enumerate() {
            match event {
                TraceEvent::Access(a) => {
                    let idx = a.cpu.index();
                    let mut h = hierarchies
                        .get_mut(idx)
                        .and_then(Option::take)
                        .ok_or_else(|| format!("trace references unknown {}", a.cpu))?;
                    let sampled = sample_every > 0 && i % sample_every == 0;
                    if sampled {
                        h.reset_recent();
                        for other in hierarchies.iter_mut().flatten() {
                            other.reset_recent();
                        }
                    }
                    let result = {
                        let mut bus = SnoopingBus::new(
                            a.cpu,
                            &mut hierarchies,
                            &mut memory,
                            &mut bus_stats,
                            subblocks,
                        );
                        h.access(a, &mut bus, &mut oracle)
                    };
                    if sampled {
                        push_span_tree(spans, org.label, i as u64, idx, &hierarchies, &h);
                    }
                    hierarchies[idx] = Some(h);
                    let outcome = result.map_err(|e| format!("simulation failed: {e}"))?;
                    if outcome.l1_hit {
                        outcomes.l1_hits += 1;
                    } else if outcome.l2_hit == Some(true) {
                        outcomes.l2_hits += 1;
                    } else {
                        outcomes.misses += 1;
                    }
                    match outcome.synonym {
                        Some(SynonymKind::SameSet) => outcomes.synonym_sameset += 1,
                        Some(SynonymKind::Move) => outcomes.synonym_move += 1,
                        None => {}
                    }
                    if outcome.tlb_hit == Some(false) {
                        outcomes.tlb_misses += 1;
                    }
                    refs += 1;
                }
                TraceEvent::ContextSwitch { cpu, from, to } => {
                    hierarchies
                        .get_mut(cpu.index())
                        .and_then(Option::as_mut)
                        .ok_or_else(|| format!("trace references unknown {cpu}"))?
                        .context_switch(*from, *to);
                    switches += 1;
                }
            }
        }
        Ok(())
    });
    result?;

    let hs: Vec<&TimedHier> = hierarchies.iter().flatten().map(|h| &**h).collect();
    for h in &hs {
        h.check_invariants()
            .map_err(|e| format!("invariants failed: {}: {e}", h.cpu()))?;
    }
    let mut l1 = CacheStats::default();
    let mut l2 = CacheStats::default();
    let mut times = LayerTimes {
        loop_wall,
        ..LayerTimes::default()
    };
    for h in &hs {
        l1.merge(&h.l1_stats());
        l2.merge(&h.l2_stats());
        times.access += h.access.time;
        times.issue += h.issue.time;
        times.snoop += h.snoop.time;
        times.switch += h.switch.time;
        times.issues += h.issue.calls;
        times.snoops += h.snoop.calls;
    }
    let stats = SimStats {
        refs,
        switches,
        l1,
        l2,
        bus: bus_stats,
        outcomes,
        events: hs.iter().map(|h| h.events().clone()).collect(),
        write_buffers: hs.iter().map(|h| h.write_buffer_stats()).collect(),
        oracle_checks: oracle.checks(),
        oracle_blocks: oracle.written_blocks(),
    };
    Ok((stats, times))
}

/// Builds an untraced system for `org` and replays `trace` on it whole,
/// returning its statistics and the replay's host time.
///
/// # Errors
///
/// The simulation error or broken invariant, rendered.
pub fn run_untraced(
    org: Org,
    trace: &Trace,
    cfg: &HierarchyConfig,
) -> Result<(SimStats, Duration), String> {
    let mut sys = System::new(org.kind, trace.cpus(), cfg);
    let took = replay_untraced(&mut sys, trace.events(), usize::MAX, &mut Vec::new())?;
    Ok((system_stats(&sys), took))
}

/// The stdout `vrsim run` prints for this trace, configuration and
/// finished system — what the pops-file workload compares each `vrsim`
/// child's output against.
pub fn vrsim_run_text(trace: &Trace, cfg: &HierarchyConfig, sys: &System) -> String {
    let run = sys.summary();
    let mut out = format!(
        "trace: {}\norganization: {}, L1 {} / L2 {}\nh1 = {:.4}   h2(local) = {:.4}\n{}\n",
        trace.summary(),
        sys.kind(),
        cfg.l1,
        cfg.l2,
        run.h1,
        run.h2_local,
        run.bus
    );
    for c in 0..trace.cpus() {
        out.push_str(&format!("cpu{c}: {}\n", sys.events(CpuId::new(c))));
    }
    out
}
