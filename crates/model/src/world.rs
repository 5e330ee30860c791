//! The model-checked world: the *real* hierarchies from `vrcache` on the
//! real bus-attached `Machine` from `vrcache-sim` (snooping bus, flat
//! main memory, sequentially-consistent version oracle) — plus
//! everything the checker needs that the simulator does not: cloning a
//! configuration mid-flight, a canonical state encoding for duplicate
//! detection, and the two global properties (single-writer and value
//! equivalence) checked after every event.
//!
//! Nothing here re-models the protocol. An event is applied by calling
//! the same `access` / `context_switch` / `tlb_shootdown` entry points
//! the trace-driven simulator calls; a counterexample found here is a
//! counterexample against the shipped implementation.

use std::collections::BTreeMap;
use std::fmt;

use vrcache::config::HierarchyConfig;
use vrcache::goodman::GoodmanHierarchy;
use vrcache::hierarchy::{AccessOutcome, BlockPresence, CacheHierarchy};
use vrcache::invariant::{InvariantExpect, InvariantViolation};
use vrcache::rcache::CohState;
use vrcache::vr::VrHierarchy;
use vrcache_bus::oracle::{CoherenceViolation, Version, VersionOracle};
use vrcache_cache::geometry::BlockId;
use vrcache_mem::access::{AccessKind, CpuId};
use vrcache_mem::addr::{Asid, PhysAddr, VirtAddr};
use vrcache_sim::machine::Machine;
use vrcache_trace::record::MemAccess;

use crate::coverage::{CoverageSet, Recorder};
use crate::scope::{ModelEvent, Scope, ASIDS};

/// Canonical state encoder.
///
/// Versions are emitted *renamed*: [`Version::INITIAL`] is always 0, and
/// every other version gets consecutive ordinals in order of first
/// appearance. The protocol only ever compares versions for equality, so
/// two states that differ solely by a version renaming are bisimilar —
/// folding them keeps the reachable graph finite even though the oracle's
/// counter grows without bound.
pub struct Encoder {
    words: Vec<u64>,
    rename: BTreeMap<u64, u64>,
}

impl Encoder {
    /// An empty encoding with the initial version pre-named 0.
    pub fn new() -> Self {
        let mut rename = BTreeMap::new();
        rename.insert(Version::INITIAL.raw(), 0);
        Encoder {
            words: Vec::new(),
            rename,
        }
    }

    /// Appends a raw word.
    pub fn word(&mut self, w: u64) {
        self.words.push(w);
    }

    /// Appends a boolean.
    pub fn flag(&mut self, b: bool) {
        self.words.push(u64::from(b));
    }

    /// Appends a version under the canonical renaming.
    pub fn version(&mut self, v: Version) {
        let next = self.rename.len() as u64;
        let renamed = *self.rename.entry(v.raw()).or_insert(next);
        self.words.push(renamed);
    }

    /// The finished encoding.
    pub fn finish(self) -> Vec<u64> {
        self.words
    }
}

impl Default for Encoder {
    fn default() -> Self {
        Encoder::new()
    }
}

/// What a hierarchy must additionally provide to be model-checked: a
/// uniform constructor, a canonical state encoding, and the version of the
/// freshest copy it holds of a physical granule (for the value-equivalence
/// property).
pub trait ModelHierarchy: CacheHierarchy + Clone {
    /// Coverage-row label ("vr" / "goodman").
    const LABEL: &'static str;

    /// Builds a hierarchy for `cpu` under `cfg`.
    fn build(cpu: CpuId, cfg: &HierarchyConfig) -> Self;

    /// Appends this hierarchy's protocol-relevant state to `enc`.
    ///
    /// Everything the next transition can depend on must be encoded;
    /// statistics, event counters, and (for the V-R hierarchy) the TLB
    /// contents and write-buffer timestamps are deliberately excluded —
    /// they never influence which coherence action is taken next. All
    /// scopes run with a drain period of 1, so the reference counter's
    /// drain phase is constant and needs no encoding either.
    fn encode(&self, enc: &mut Encoder);

    /// The version of the newest copy of `granule` this hierarchy holds
    /// anywhere (first level, write buffer, or second level), or `None`
    /// when it holds no copy.
    fn effective_version(&self, granule: BlockId) -> Option<Version>;
}

impl ModelHierarchy for VrHierarchy {
    const LABEL: &'static str = "vr";

    fn build(cpu: CpuId, cfg: &HierarchyConfig) -> Self {
        VrHierarchy::new(cpu, cfg)
    }

    fn encode(&self, enc: &mut Encoder) {
        let vcaches = [Some(self.vcache()), self.icache()];
        for vcache in vcaches.iter().flatten() {
            let mut lines: Vec<_> = vcache.iter().collect();
            lines.sort_unstable_by_key(|l| l.block);
            enc.word(lines.len() as u64);
            for line in lines {
                enc.word(line.block.raw());
                enc.word(line.meta.p_block.raw());
                enc.flag(line.meta.dirty);
                enc.flag(line.meta.swapped);
                enc.version(line.meta.version);
            }
        }
        enc.flag(self.icache().is_some());

        let mut lines: Vec<_> = self.rcache().iter().collect();
        lines.sort_unstable_by_key(|l| l.block);
        enc.word(lines.len() as u64);
        for line in lines {
            enc.word(line.block.raw());
            enc.word(match line.meta.state {
                CohState::Shared => 0,
                CohState::Private => 1,
            });
            enc.flag(line.meta.rdirty);
            for sub in &line.meta.subs {
                enc.flag(sub.inclusion);
                enc.flag(sub.buffer);
                enc.flag(sub.vdirty);
                if sub.inclusion {
                    // `child` and `v_block` are only maintained while the
                    // inclusion bit is set; mask the stale residue out so
                    // it cannot split equivalent states.
                    enc.word(match sub.child {
                        vrcache::rcache::ChildCache::Data => 0,
                        vrcache::rcache::ChildCache::Instr => 1,
                    });
                    enc.word(sub.v_block.raw());
                } else {
                    enc.word(u64::MAX);
                    enc.word(u64::MAX);
                }
                enc.version(sub.version);
            }
        }

        // FIFO order matters: which entry drains next is protocol state.
        enc.word(self.write_buffer().len() as u64);
        for pending in self.write_buffer().iter() {
            enc.word(pending.block.raw());
            enc.version(pending.payload);
        }
    }

    fn effective_version(&self, granule: BlockId) -> Option<Version> {
        // Precedence mirrors where the freshest data physically sits:
        // a first-level copy (swapped ones included — they stay coherent
        // and can be re-validated), else the youngest write-buffer entry,
        // else the second level.
        let vcaches = [Some(self.vcache()), self.icache()];
        for vcache in vcaches.iter().flatten() {
            if let Some(line) = vcache.iter().find(|l| l.meta.p_block == granule) {
                return Some(line.meta.version);
            }
        }
        let mut pending = None;
        for entry in self.write_buffer().iter() {
            if entry.block == granule {
                pending = Some(entry.payload);
            }
        }
        if pending.is_some() {
            return pending;
        }
        let p2 = self.rcache().l2_block_of(granule);
        let sub = self.rcache().sub_index(granule);
        self.rcache()
            .peek(p2)
            .map(|line| line.meta.subs[sub].version)
    }
}

impl ModelHierarchy for GoodmanHierarchy {
    const LABEL: &'static str = "goodman";

    fn build(cpu: CpuId, cfg: &HierarchyConfig) -> Self {
        GoodmanHierarchy::new(cpu, cfg)
    }

    fn encode(&self, enc: &mut Encoder) {
        let mut lines: Vec<_> = self.cache().iter().collect();
        lines.sort_unstable_by_key(|l| l.block);
        enc.word(lines.len() as u64);
        for line in lines {
            enc.word(line.block.raw());
            enc.word(line.meta.p_block.raw());
            enc.flag(line.meta.dirty);
            enc.flag(line.meta.swapped);
            enc.flag(self.granule_private(line.meta.p_block));
            enc.version(line.meta.version);
        }
    }

    fn effective_version(&self, granule: BlockId) -> Option<Version> {
        self.cache()
            .iter()
            .find(|l| l.meta.p_block == granule)
            .map(|l| l.meta.version)
    }
}

/// A property violation found by the checker.
#[derive(Debug, Clone)]
pub enum Violation {
    /// A processor observed stale data (the oracle's own check).
    Coherence(CoherenceViolation),
    /// A structural invariant of one hierarchy failed.
    Invariant {
        /// The hierarchy's processor.
        cpu: CpuId,
        /// The violated invariant.
        violation: InvariantViolation,
    },
    /// A hierarchy holds a block `private` while another still has a copy
    /// — the single-writer half of SWMR.
    PrivateNotExclusive {
        /// The second-level block.
        block: BlockId,
        /// The private holder.
        owner: CpuId,
        /// The other processor that still holds a copy.
        other: CpuId,
        /// What the other processor holds.
        other_presence: BlockPresence,
    },
    /// A hierarchy's freshest copy of a granule is not the globally newest
    /// version — stale data is sitting where a future hit could return it.
    StaleCopy {
        /// The holding processor.
        cpu: CpuId,
        /// The physical granule.
        granule: BlockId,
        /// The version held.
        held: Version,
        /// The newest version per the oracle.
        newest: Version,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Coherence(v) => write!(f, "coherence: {v}"),
            Violation::Invariant { cpu, violation } => {
                write!(f, "invariant ({cpu}): {violation}")
            }
            Violation::PrivateNotExclusive {
                block,
                owner,
                other,
                other_presence,
            } => write!(
                f,
                "SWMR: {owner} holds block {block} private but {other} is {}",
                other_presence.label()
            ),
            Violation::StaleCopy {
                cpu,
                granule,
                held,
                newest,
            } => write!(
                f,
                "value: {cpu} holds {held} of granule {granule} but newest is {newest}"
            ),
        }
    }
}

/// One complete system state: the machine (per-processor hierarchies,
/// shared memory, version oracle) and each processor's current ASID.
#[derive(Clone)]
pub struct World<H: ModelHierarchy> {
    machine: Machine<H>,
    asids: Vec<Asid>,
}

impl<H: ModelHierarchy> World<H> {
    /// The initial state of `scope`: cold caches, pristine memory, every
    /// processor running the first ASID.
    pub fn new(scope: &Scope) -> Self {
        let hierarchies = (0..scope.cpus).map(|c| Box::new(H::build(CpuId::new(c), &scope.cfg)));
        World {
            machine: Machine::new(hierarchies, scope.cfg.subblocks()),
            asids: vec![ASIDS[0]; usize::from(scope.cpus)],
        }
    }

    /// The version oracle (the flat sequentially-consistent reference).
    pub fn oracle(&self) -> &VersionOracle {
        &self.machine.oracle
    }

    /// Performs one processor reference through mapping `mapping`.
    ///
    /// # Errors
    ///
    /// Returns [`Violation::Coherence`] if the processor observed stale
    /// data.
    pub fn access(
        &mut self,
        scope: &Scope,
        cpu: u16,
        mapping: usize,
        write: bool,
        coverage: &mut CoverageSet,
    ) -> Result<AccessOutcome, Violation> {
        let m = scope.mappings[mapping];
        let access = MemAccess {
            cpu: CpuId::new(cpu),
            asid: self.asids[usize::from(cpu)],
            kind: if write {
                AccessKind::DataWrite
            } else {
                AccessKind::DataRead
            },
            vaddr: VirtAddr::new(m.va),
            paddr: PhysAddr::new(m.pa),
        };
        let mut recorder = Recorder::new(coverage, H::LABEL);
        self.machine
            .access(&access, Some(&mut recorder))
            .invariant_expect("hierarchy slots are occupied between events")
            .map_err(Violation::Coherence)
    }

    /// Applies one alphabet event.
    ///
    /// # Errors
    ///
    /// Returns the violation if the event itself tripped a check (stale
    /// read). The global properties are checked separately via
    /// [`World::check`].
    pub fn apply(
        &mut self,
        scope: &Scope,
        event: ModelEvent,
        coverage: &mut CoverageSet,
    ) -> Result<(), Violation> {
        match event {
            ModelEvent::Read { cpu, mapping } => self
                .access(scope, cpu, mapping, false, coverage)
                .map(|_| ()),
            ModelEvent::Write { cpu, mapping } => {
                self.access(scope, cpu, mapping, true, coverage).map(|_| ())
            }
            ModelEvent::ContextSwitch { cpu } => {
                let idx = usize::from(cpu);
                let from = self.asids[idx];
                let to = if from == ASIDS[0] { ASIDS[1] } else { ASIDS[0] };
                self.asids[idx] = to;
                self.machine
                    .get_mut(CpuId::new(cpu))
                    .invariant_expect("hierarchy slots are occupied between events")
                    .context_switch(from, to);
                Ok(())
            }
            ModelEvent::Shootdown { mapping } => {
                // The OS retires one translation globally: every processor
                // currently running the mapping's address space services
                // the shootdown. The scope keys translations off processor
                // 0's current ASID.
                let asid = self.asids[0];
                let va = VirtAddr::new(scope.mappings[mapping].va);
                let vpn = scope.cfg.page.vpn_of(va);
                for cpu in 0..scope.cpus {
                    let mut recorder = Recorder::new(coverage, H::LABEL);
                    self.machine
                        .with_bus(CpuId::new(cpu), Some(&mut recorder), |h, bus, _| {
                            h.tlb_shootdown(asid, vpn, bus)
                        })
                        .invariant_expect("hierarchy slots are occupied between events");
                }
                Ok(())
            }
        }
    }

    /// Checks every global property in the current state.
    ///
    /// # Errors
    ///
    /// Returns the first violation found: a structural invariant of some
    /// hierarchy, single-writer exclusivity across hierarchies, or a held
    /// copy older than the globally newest version.
    pub fn check(&self, scope: &Scope) -> Result<(), Violation> {
        for h in self.machine.iter() {
            h.check_invariants()
                .map_err(|violation| Violation::Invariant {
                    cpu: h.cpu(),
                    violation,
                })?;
        }

        // SWMR, writer half: a private holder excludes every other copy.
        for &block in &scope.l2_blocks() {
            let presences: Vec<(CpuId, BlockPresence)> = self
                .machine
                .iter()
                .map(|h| (h.cpu(), h.coh_presence(block)))
                .collect();
            if let Some(&(owner, _)) = presences.iter().find(|(_, p)| *p == BlockPresence::Private)
            {
                for &(other, presence) in &presences {
                    if other != owner && presence != BlockPresence::Absent {
                        return Err(Violation::PrivateNotExclusive {
                            block,
                            owner,
                            other,
                            other_presence: presence,
                        });
                    }
                }
            }
        }

        // Value equivalence: any held copy must be the newest version.
        // (The oracle alone only catches staleness when a processor
        // *reads*; this catches stale copies parked in a cache even if no
        // event in the explored prefix ever reads them.)
        for &granule in &scope.granules() {
            let newest = self.machine.oracle.newest(granule);
            for h in self.machine.iter() {
                if let Some(held) = h.effective_version(granule) {
                    if held != newest {
                        return Err(Violation::StaleCopy {
                            cpu: h.cpu(),
                            granule,
                            held,
                            newest,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// The canonical encoding of this state, for duplicate detection.
    /// Two states with equal keys have bisimilar futures (versions are
    /// renamed consistently across hierarchies, memory, and oracle).
    pub fn canon_key(&self, scope: &Scope) -> Vec<u64> {
        let mut enc = Encoder::new();
        enc.word(self.machine.cpus() as u64);
        for (h, asid) in self.machine.iter().zip(&self.asids) {
            enc.word(u64::from(asid.raw()));
            h.encode(&mut enc);
        }
        let snapshot = self.machine.memory.snapshot();
        enc.word(snapshot.len() as u64);
        for (block, version) in snapshot {
            enc.word(block.raw());
            enc.version(version);
        }
        for &granule in &scope.granules() {
            enc.version(self.machine.oracle.newest(granule));
        }
        enc.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoder_renames_versions_by_first_appearance() {
        let mut a = Encoder::new();
        a.version(Version::INITIAL);
        a.version(Version::INITIAL);
        let mut b = Encoder::new();
        b.version(Version::INITIAL);
        b.version(Version::INITIAL);
        assert_eq!(a.finish(), b.finish());

        // Different raw versions, same pattern → same encoding.
        let mut oracle_a = VersionOracle::new();
        let va = oracle_a.on_write(CpuId::new(0), BlockId::new(1));
        let mut oracle_b = VersionOracle::new();
        let _ = oracle_b.on_write(CpuId::new(0), BlockId::new(2));
        let vb = oracle_b.on_write(CpuId::new(0), BlockId::new(1));
        assert_ne!(va, vb);
        let mut a = Encoder::new();
        a.version(va);
        a.version(va);
        let mut b = Encoder::new();
        b.version(vb);
        b.version(vb);
        assert_eq!(a.finish(), b.finish());
    }

    #[test]
    fn fresh_world_passes_every_check_and_has_a_stable_key() {
        let scope = Scope::smoke();
        let w = World::<VrHierarchy>::new(&scope);
        w.check(&scope).unwrap();
        assert_eq!(w.canon_key(&scope), w.canon_key(&scope));
        assert_eq!(
            w.canon_key(&scope),
            World::<VrHierarchy>::new(&scope).canon_key(&scope)
        );
    }

    #[test]
    fn writes_under_renamed_versions_fold_to_equal_keys() {
        // Two worlds whose histories differ only in how many oracle ticks
        // happened before an equivalent final state must share a key.
        let scope = Scope::smoke();
        let mut cov = CoverageSet::default();
        let mut a = World::<VrHierarchy>::new(&scope);
        a.apply(&scope, ModelEvent::Write { cpu: 0, mapping: 0 }, &mut cov)
            .unwrap();
        let mut b = World::<VrHierarchy>::new(&scope);
        b.apply(&scope, ModelEvent::Write { cpu: 0, mapping: 0 }, &mut cov)
            .unwrap();
        b.apply(&scope, ModelEvent::Write { cpu: 0, mapping: 0 }, &mut cov)
            .unwrap();
        // One extra write bumps the version but leaves the same shape; the
        // renaming folds both to the same canonical key.
        assert_eq!(a.canon_key(&scope), b.canon_key(&scope));
    }

    #[test]
    fn effective_version_tracks_a_write() {
        let scope = Scope::smoke();
        let mut cov = CoverageSet::default();
        let mut w = World::<VrHierarchy>::new(&scope);
        let g = scope.granules()[0];
        w.apply(&scope, ModelEvent::Write { cpu: 0, mapping: 0 }, &mut cov)
            .unwrap();
        let h = w.machine.get(CpuId::new(0)).unwrap();
        assert_eq!(h.effective_version(g), Some(w.oracle().newest(g)));
        w.check(&scope).unwrap();
    }

    #[test]
    fn goodman_world_applies_events_cleanly() {
        let scope = Scope::by_name("goodman-2cpu").unwrap();
        let mut cov = CoverageSet::default();
        let mut w = World::<GoodmanHierarchy>::new(&scope);
        w.apply(&scope, ModelEvent::Write { cpu: 0, mapping: 0 }, &mut cov)
            .unwrap();
        w.check(&scope).unwrap();
        w.apply(&scope, ModelEvent::Read { cpu: 1, mapping: 1 }, &mut cov)
            .unwrap();
        w.check(&scope).unwrap();
        assert!(!cov.is_empty());
    }
}
