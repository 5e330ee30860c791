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
///
/// Its buffers live as long as it does: one encoder reused across an
/// exploration allocates only while they grow.
pub struct Encoder {
    words: Vec<u64>,
    /// Raw versions in order of first appearance: a version's ordinal is
    /// its position. A state holds a handful of distinct versions, so a
    /// linear scan beats any map.
    seen: Vec<u64>,
    /// Scratch for [`Encoder::sorted`].
    records: Records,
}

impl Encoder {
    /// An empty encoding with the initial version pre-named 0.
    pub fn new() -> Self {
        Encoder {
            words: Vec::new(),
            seen: vec![Version::INITIAL.raw()],
            records: Records::default(),
        }
    }

    /// Empties the encoding for reuse, keeping its buffers.
    pub(crate) fn reset(&mut self) {
        self.words.clear();
        self.seen.truncate(1);
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
        let raw = v.raw();
        let renamed = match self.seen.iter().position(|&s| s == raw) {
            Some(i) => i,
            None => {
                self.seen.push(raw);
                self.seen.len() - 1
            }
        };
        self.words.push(renamed as u64);
    }

    /// Appends a cache's lines in slot order: the line count, then the
    /// words `line` writes for each. In a direct-mapped array, the shape
    /// of every scope's caches, a line's slot is a function of its block,
    /// so slot order is canonical without a sort. (In a set-associative
    /// array it would also record which way a block took: a finer key,
    /// which can split equal states but never merge distinct ones.)
    pub fn in_slot_order<L>(
        &mut self,
        lines: impl IntoIterator<Item = L>,
        mut line: impl FnMut(&mut Self, L),
    ) {
        let count_at = self.words.len();
        self.words.push(0);
        let mut count = 0;
        for l in lines {
            line(self, l);
            count += 1;
        }
        self.words[count_at] = count;
    }

    /// Appends a set of records in ascending order of their keys: the
    /// record count, then each record's words. `fill` writes the records
    /// in any order, each opened by [`Records::begin`] with a key unique
    /// in the set; versions are renamed in the sorted order, so the
    /// encoding does not depend on the order `fill` walked. For walks
    /// whose order is arbitrary: a hash map's, or memory's.
    pub fn sorted(&mut self, fill: impl FnOnce(&mut Records)) {
        let mut records = std::mem::take(&mut self.records);
        records.words.clear();
        records.spans.clear();
        fill(&mut records);
        records.close();
        records.spans.sort_unstable_by_key(|&(key, _, _)| key);
        self.word(records.spans.len() as u64);
        for &(_, start, end) in &records.spans {
            for &word in &records.words[start..end] {
                match word {
                    RecordWord::Raw(w) => self.word(w),
                    RecordWord::Version(v) => self.version(v),
                }
            }
        }
        self.records = records;
    }

    /// The encoding so far.
    pub(crate) fn words(&self) -> &[u64] {
        &self.words
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

/// Records written for one [`Encoder::sorted`] walk, each opened by its
/// sort key. Versions are kept raw until the walk is sorted.
#[derive(Default)]
pub struct Records {
    words: Vec<RecordWord>,
    /// `(key, start, end)` of each record in `words`.
    spans: Vec<(u64, usize, usize)>,
}

#[derive(Clone, Copy)]
enum RecordWord {
    Raw(u64),
    Version(Version),
}

impl Records {
    /// Opens a record whose first word, and sort key, is `key`.
    pub fn begin(&mut self, key: u64) {
        self.close();
        self.spans.push((key, self.words.len(), self.words.len()));
        self.words.push(RecordWord::Raw(key));
    }

    /// Appends a raw word to the open record.
    pub fn word(&mut self, w: u64) {
        self.words.push(RecordWord::Raw(w));
    }

    /// Appends a boolean to the open record.
    pub fn flag(&mut self, b: bool) {
        self.word(u64::from(b));
    }

    /// Appends a version to the open record, renamed once sorted.
    pub fn version(&mut self, v: Version) {
        self.words.push(RecordWord::Version(v));
    }

    /// Ends the open record, if any.
    fn close(&mut self) {
        if let Some(span) = self.spans.last_mut() {
            span.2 = self.words.len();
        }
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
    /// Two things must be encoded: everything the next transition can
    /// depend on, and everything [`World::check`] reads — its structural
    /// invariants, [`CacheHierarchy::coh_presence`] and
    /// [`ModelHierarchy::effective_version`]. The search checks a state
    /// only when its key is new, so a check that read an unencoded field
    /// could pass a state whose duplicate would fail it. Statistics,
    /// event counters, the TLB contents, write-buffer timestamps,
    /// replacement clocks and a subentry's `child`/`v_block` while its
    /// inclusion bit is clear are left out: no coherence action and no
    /// check reads them. All scopes run with a drain period of 1, so the
    /// drain countdown is 1 between events and needs no encoding either.
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
            enc.in_slot_order(vcache.iter(), |enc, line| {
                enc.word(line.block.raw());
                enc.word(line.meta.p_block.raw());
                enc.flag(line.meta.dirty);
                enc.flag(line.meta.swapped);
                enc.version(line.meta.version);
            });
        }
        enc.flag(self.icache().is_some());

        enc.in_slot_order(self.rcache().iter(), |enc, line| {
            enc.word(line.block.raw());
            enc.word(match line.meta.state {
                CohState::Shared => 0,
                CohState::Private => 1,
            });
            enc.flag(line.meta.rdirty);
            for sub in line.meta.subs.iter() {
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
        });

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
        enc.in_slot_order(self.cache().iter(), |enc, line| {
            enc.word(line.block.raw());
            enc.word(line.meta.p_block.raw());
            enc.flag(line.meta.dirty);
            enc.flag(line.meta.swapped);
            enc.version(line.meta.version);
        });
        // The check compares the whole directory with the cache, and
        // the presence probe reads it by granule: all of it is state.
        enc.sorted(|rec| {
            for (granule, v_block, private) in self.directory() {
                rec.begin(granule.raw());
                rec.word(v_block.raw());
                rec.flag(private);
            }
        });
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

/// The addresses a scope's global properties range over: the physical
/// granules its mappings touch (value equivalence, and the oracle part
/// of the canonical key) and their second-level blocks (SWMR), each
/// sorted and deduplicated. Built once per exploration, so checking and
/// encoding a state allocate nothing for it.
#[derive(Debug, Clone)]
pub(crate) struct Universe {
    granules: Vec<BlockId>,
    l2_blocks: Vec<BlockId>,
}

impl Universe {
    /// The universe of `scope`.
    pub(crate) fn of(scope: &Scope) -> Self {
        Universe {
            granules: scope.granules(),
            l2_blocks: scope.l2_blocks(),
        }
    }
}

/// One complete system state: the machine (per-processor hierarchies,
/// shared memory, version oracle) and each processor's current ASID.
pub struct World<H: ModelHierarchy> {
    machine: Machine<H>,
    asids: Vec<Asid>,
}
vrcache_mem::clone_fields!(World<H> { machine, asids } where H: ModelHierarchy);

impl<H: ModelHierarchy> World<H> {
    /// The initial state of `scope`: cold caches, pristine memory, every
    /// processor running the first ASID.
    pub fn new(scope: &Scope) -> Self {
        let hierarchies = (0..scope.cpus).map(|c| Box::new(H::build(CpuId::new(c), &scope.cfg)));
        let mut machine = Machine::new(hierarchies, scope.cfg.subblocks());
        // Room for every block the scope can write, so no event grows a
        // table; copies made with `clone_from` keep the room.
        let granules = scope.l2_blocks().len() * scope.cfg.subblocks() as usize;
        machine.memory.reserve(granules);
        machine.oracle.reserve(granules);
        World {
            machine,
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
        self.check_in(&Universe::of(scope))
    }

    /// [`World::check`] over a prebuilt [`Universe`], so a check builds
    /// no address lists of its own.
    ///
    /// # Errors
    ///
    /// As [`World::check`].
    pub(crate) fn check_in(&self, universe: &Universe) -> Result<(), Violation> {
        for h in self.machine.iter() {
            h.check_invariants()
                .map_err(|violation| Violation::Invariant {
                    cpu: h.cpu(),
                    violation,
                })?;
        }

        // SWMR, writer half: a private holder excludes every other copy.
        for &block in &universe.l2_blocks {
            let Some(owner) = self
                .machine
                .iter()
                .find(|h| h.coh_presence(block) == BlockPresence::Private)
                .map(|h| h.cpu())
            else {
                continue;
            };
            for h in self.machine.iter() {
                let presence = h.coh_presence(block);
                if h.cpu() != owner && presence != BlockPresence::Absent {
                    return Err(Violation::PrivateNotExclusive {
                        block,
                        owner,
                        other: h.cpu(),
                        other_presence: presence,
                    });
                }
            }
        }

        // Value equivalence: any held copy must be the newest version.
        // (The oracle alone only catches staleness when a processor
        // *reads*; this catches stale copies parked in a cache even if no
        // event in the explored prefix ever reads them.)
        for &granule in &universe.granules {
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
        self.canon_key_into(&Universe::of(scope), &mut enc);
        enc.finish()
    }

    /// Writes [`World::canon_key`] into `enc`, replacing what it held, so
    /// one encoder's buffers serve a whole exploration.
    pub(crate) fn canon_key_into(&self, universe: &Universe, enc: &mut Encoder) {
        enc.reset();
        enc.word(self.machine.cpus() as u64);
        for (h, asid) in self.machine.iter().zip(&self.asids) {
            enc.word(u64::from(asid.raw()));
            h.encode(enc);
        }
        enc.sorted(|rec| {
            for (block, version) in self.machine.memory.iter() {
                rec.begin(block.raw());
                rec.version(version);
            }
        });
        for &granule in &universe.granules {
            enc.version(self.machine.oracle.newest(granule));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scope::Mapping;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use vrcache_cache::geometry::CacheGeometry;

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
    fn sorted_records_encode_alike_in_any_walk_order() {
        let mut oracle = VersionOracle::new();
        let v1 = oracle.on_write(CpuId::new(0), BlockId::new(1));
        let v2 = oracle.on_write(CpuId::new(0), BlockId::new(1));
        let write = |walk: &[(u64, Version)]| {
            let mut enc = Encoder::new();
            enc.sorted(|rec| {
                for &(key, v) in walk {
                    rec.begin(key);
                    rec.flag(true);
                    rec.version(v);
                }
            });
            enc.finish()
        };
        let key = write(&[(3, v1), (1, v2)]);
        assert_eq!(key, write(&[(1, v2), (3, v1)]));
        // The count, then each record by key; versions are renamed in
        // sorted order, so v2 (at key 1) is named first.
        assert_eq!(key, vec![2, 1, 1, 1, 3, 1, 2]);
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

    /// `scope` grown: one more processor, caches twice the size, twelve
    /// more mappings (one block each, on a page of their own), and a
    /// write buffer twice as deep that drains only when full.
    fn grown(scope: &Scope) -> Scope {
        let mut big = scope.clone();
        big.cpus += 1;
        let double = |g: CacheGeometry| {
            CacheGeometry::direct_mapped(g.size_bytes() * 2, g.block_bytes()).unwrap()
        };
        big.cfg.l1 = double(scope.cfg.l1);
        big.cfg.l2 = double(scope.cfg.l2);
        big.cfg = big
            .cfg
            .with_write_buffer(scope.cfg.write_buffer * 2)
            .with_drain_period(1 << 20);
        big.mappings.extend((0..12).map(|k| Mapping {
            va: 0x8000 + 0x1010 * k,
            pa: 0x8000 + 0x1010 * k,
        }));
        big
    }

    /// A world of `scope` after `steps` events drawn by a seeded walk.
    fn walked<H: ModelHierarchy>(scope: &Scope, seed: u64, steps: usize) -> World<H> {
        let alphabet = scope.events();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cov = CoverageSet::default();
        let mut w = World::<H>::new(scope);
        for _ in 0..steps {
            let event = alphabet[rng.gen_range(0..alphabet.len())];
            w.apply(scope, event, &mut cov).unwrap();
        }
        w
    }

    /// What a world shows: its canonical key, its check verdict, and the
    /// full state of memory, oracle and every hierarchy (counters
    /// included, which the key leaves out).
    fn observe<H: ModelHierarchy + fmt::Debug>(
        w: &World<H>,
        scope: &Scope,
    ) -> (Vec<u64>, Result<(), String>, String) {
        let hierarchies: Vec<&H> = w.machine.iter().collect();
        (
            w.canon_key(scope),
            w.check(scope).map_err(|v| v.to_string()),
            format!(
                "{:?} {:?} {:?} {:?}",
                w.machine.memory, w.machine.oracle, hierarchies, w.asids
            ),
        )
    }

    /// Along a seeded walk of `scope`, a copy of `donor` overwritten with
    /// `clone_from` must be indistinguishable from a fresh `clone`, both
    /// as it stands and after each alphabet event.
    fn clone_from_matches_clone<H: ModelHierarchy + fmt::Debug>(
        scope: &Scope,
        donor: &World<H>,
        seed: u64,
    ) {
        let alphabet = scope.events();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cov = CoverageSet::default();
        let mut w = World::<H>::new(scope);
        let recycled = |w: &World<H>| {
            let mut r = donor.clone();
            r.clone_from(w);
            r
        };
        for _ in 0..24 {
            assert_eq!(observe(&recycled(&w), scope), observe(&w.clone(), scope));
            for &event in &alphabet {
                let (mut fresh, mut reused) = (w.clone(), recycled(&w));
                let a = fresh
                    .apply(scope, event, &mut cov)
                    .map_err(|v| v.to_string());
                let b = reused
                    .apply(scope, event, &mut cov)
                    .map_err(|v| v.to_string());
                assert_eq!(a, b, "{event}");
                assert_eq!(observe(&fresh, scope), observe(&reused, scope), "{event}");
            }
            let event = alphabet[rng.gen_range(0..alphabet.len())];
            w.apply(scope, event, &mut cov).unwrap();
        }
    }

    /// Scrambles what [`ModelHierarchy::encode`] leaves out.
    trait Perturb {
        fn perturb(&mut self, rng: &mut StdRng);
    }

    /// Fills a random TLB entry or flushes them all, and bumps counters
    /// and statistics.
    fn perturb_common(
        rng: &mut StdRng,
        tlb: &mut vrcache_mem::tlb::Tlb,
        events: &mut vrcache::events::HierarchyEvents,
        l1: &mut vrcache::vcache::VCache,
    ) {
        use vrcache_mem::addr::{Ppn, Vpn};
        if rng.gen_bool(0.25) {
            tlb.flush_all();
        } else {
            let asid = ASIDS[rng.gen_range(0..ASIDS.len())];
            tlb.fill(
                asid,
                Vpn::new(rng.gen_range(0..64)),
                Ppn::new(rng.gen_range(0..64)),
            );
        }
        events.flush_v += rng.gen_range(1..4);
        events.l1_writebacks += 1;
        events.inclusion_invalidations += rng.gen_range(0..2);
        l1.stats_mut().record(AccessKind::DataRead, rng.gen());
    }

    impl Perturb for VrHierarchy {
        fn perturb(&mut self, rng: &mut StdRng) {
            let (tlb, events, l1, l2) = self.parts_mut();
            perturb_common(rng, tlb, events, l1);
            l2.stats_mut().record(AccessKind::DataWrite, rng.gen());
            // The residue of unlinked subentries.
            let blocks: Vec<BlockId> = l2.iter().map(|line| line.block).collect();
            for block in blocks {
                let line = l2.peek_mut(block).unwrap();
                for sub in line.meta.subs.iter_mut().filter(|sub| !sub.inclusion) {
                    sub.child = if rng.gen() {
                        vrcache::rcache::ChildCache::Instr
                    } else {
                        vrcache::rcache::ChildCache::Data
                    };
                    sub.v_block = BlockId::new(rng.gen_range(0..1 << 20));
                }
            }
        }
    }

    impl Perturb for GoodmanHierarchy {
        fn perturb(&mut self, rng: &mut StdRng) {
            let (tlb, events, l1) = self.parts_mut();
            perturb_common(rng, tlb, events, l1);
        }
    }

    /// Along a seeded walk of `scope`, scrambling every hierarchy's
    /// unencoded state must change the world but neither its key nor
    /// its check verdict: the premise of checking each key once.
    fn check_is_a_function_of_the_key<H: ModelHierarchy + Perturb + fmt::Debug>(
        scope: &Scope,
        seed: u64,
    ) {
        let alphabet = scope.events();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut cov = CoverageSet::default();
        let mut w = World::<H>::new(scope);
        for step in 0..120 {
            let (key, verdict, state) = observe(&w, scope);
            let mut scrambled = w.clone();
            for cpu in 0..scope.cpus {
                scrambled
                    .machine
                    .get_mut(CpuId::new(cpu))
                    .unwrap()
                    .perturb(&mut rng);
            }
            let (key2, verdict2, state2) = observe(&scrambled, scope);
            assert_ne!(
                state, state2,
                "{}: step {step} perturbed nothing",
                scope.name
            );
            assert_eq!(key, key2, "{}: step {step} key moved", scope.name);
            assert_eq!(verdict, verdict2, "{}: step {step} check moved", scope.name);
            let event = alphabet[rng.gen_range(0..alphabet.len())];
            w.apply(scope, event, &mut cov).unwrap();
        }
    }

    #[test]
    fn check_reads_nothing_the_key_leaves_out() {
        for (i, scope) in Scope::all().iter().enumerate() {
            let seed = 0x5eed + i as u64;
            match scope.kind {
                crate::scope::ScopeKind::Vr => {
                    check_is_a_function_of_the_key::<VrHierarchy>(scope, seed);
                }
                crate::scope::ScopeKind::Goodman => {
                    check_is_a_function_of_the_key::<GoodmanHierarchy>(scope, seed);
                }
            }
        }
    }

    #[test]
    fn vr_clone_from_a_fuller_world_matches_clone() {
        let scope = Scope::by_name("vr-sub-2cpu").unwrap();
        let donor_scope = grown(&Scope::by_name("vr-3cpu").unwrap());
        let donor = walked::<VrHierarchy>(&donor_scope, 7, 3000);
        let hierarchies: Vec<&VrHierarchy> = donor.machine.iter().collect();
        let lines: usize = hierarchies
            .iter()
            .map(|h| h.vcache().iter().count() + h.rcache().iter().count())
            .sum();
        // Fuller than any state of the walked scope: more lines than its
        // caches have slots, buffered writes, more memory blocks than it
        // has granules.
        let slots =
            usize::from(scope.cpus) * (scope.cfg.l1.blocks() + scope.cfg.l2.blocks()) as usize;
        assert!(lines > slots, "donor holds {lines} lines");
        assert!(hierarchies.iter().any(|h| !h.write_buffer().is_empty()));
        assert!(donor.machine.memory.iter().count() > scope.granules().len());
        clone_from_matches_clone(&scope, &donor, 11);
    }

    #[test]
    fn goodman_clone_from_a_fuller_world_matches_clone() {
        let scope = Scope::by_name("goodman-2cpu").unwrap();
        let donor_scope = grown(&scope);
        let donor = walked::<GoodmanHierarchy>(&donor_scope, 7, 3000);
        let lines: usize = donor.machine.iter().map(|h| h.cache().iter().count()).sum();
        let slots = usize::from(scope.cpus) * scope.cfg.l1.blocks() as usize;
        assert!(lines > slots, "donor holds {lines} lines");
        assert!(donor.machine.memory.iter().count() > scope.granules().len());
        clone_from_matches_clone(&scope, &donor, 11);
    }
}
