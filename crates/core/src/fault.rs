//! The fault model: deterministic single-fault corruption of live
//! hierarchy state.
//!
//! The paper's correctness story hangs on small pieces of linking
//! metadata — the V-cache *r-pointers*, the R-cache subentry
//! *inclusion*/*buffer*/*vdirty* bits and *v-pointers* — whose silent
//! corruption breaks synonym resolution and the R-cache's shielding of
//! the first level. This module enumerates the ways that state can rot
//! ([`FaultKind`]) and defines the [`FaultPort`] trait through which the
//! `vrcache-inject` campaign runner corrupts a live hierarchy at a
//! deterministic `(seed, access-index)` point.
//!
//! Detection is modeled parity ([`HierarchyConfig::parity`]): every
//! tag/state array and the TLB carry parity, so a hardware fault leaves
//! a *syndrome* identifying which structure faulted. The model keeps
//! that syndrome as a poison record attached to the corrupted entry's
//! lookup key, in the hierarchy's `Protection`; the shared
//! `Scrub::scrub_poison` detects and recovers it at the entry of every
//! public operation (access, context switch, TLB shootdown, snoop) —
//! before any lookup can consume corrupted state, exactly as a parity
//! check fires on the array read itself. Recovery is typed:
//!
//! * **clean parity miss** — the corrupted state duplicated something
//!   recoverable; discard it and let the normal miss path refetch
//!   ([`HierarchyEvents::parity_refetches`]);
//! * **dirty or pointer-metadata parity miss** — modified data or
//!   linkage may be lost; conservatively invalidate the affected lines
//!   and their children and raise a machine check
//!   ([`HierarchyEvents::parity_machine_checks`]). The hierarchy stays
//!   structurally sound but the run is declared failed — loudly, never
//!   silently.
//!
//! Bus-level kinds ([`FaultKind::is_bus_level`]) are not injected
//! through the port — they corrupt transactions in flight, so the
//! campaign harness arms them at its faulty-bus wrapper, recovering via
//! bounded retry with NACK accounting
//! ([`vrcache_bus::retry`](vrcache_bus::retry)).
//!
//! The mechanism is written once, here: poison bookkeeping
//! (`Protection`), SECDED decoding (`Protection::repair`), seed-driven
//! target selection (`pick`, `pick_preferring`), the first-level
//! injectors over any `CacheArray` of `DataLine`s, and the TLB,
//! write-buffer and data-word recovery arms of the scrub. An
//! organization supplies its [`FaultPort`] match and, through `Scrub`,
//! its own line-recovery policy.
//!
//! [`HierarchyConfig::parity`]: crate::config::HierarchyConfig::parity
//! [`HierarchyEvents::parity_refetches`]: crate::events::HierarchyEvents::parity_refetches
//! [`HierarchyEvents::parity_machine_checks`]: crate::events::HierarchyEvents::parity_machine_checks

use core::fmt;

use vrcache_bus::oracle::Version;
use vrcache_cache::array::{CacheArray, Line};
use vrcache_cache::geometry::BlockId;
use vrcache_cache::syndrome::{Codeword, Decode};
use vrcache_cache::write_buffer::WriteBuffer;
use vrcache_mem::addr::{Asid, Vpn};
use vrcache_mem::tlb::Tlb;

use crate::config::{DataProtection, HierarchyConfig};
use crate::events::HierarchyEvents;
use crate::rcache::{ChildCache, RCache};

/// One kind of single-point corruption of live hierarchy state.
///
/// The structural kinds target a specific structure and are injected
/// through [`FaultPort::inject_fault`]; the `Bus*` kinds corrupt bus
/// transactions in flight and are armed at the campaign harness's bus
/// wrapper. The data-bit kinds ([`is_data_level`](Self::is_data_level))
/// corrupt the *data* arrays — what the hierarchy does about those is
/// governed by [`DataProtection`], not by
/// the metadata parity knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// Flip a tag bit of a V-cache (or physical L1) line: the line now
    /// answers for the wrong address.
    VTagFlip,
    /// Flip a V-cache line's dirty bit.
    VStateFlip,
    /// Corrupt a V-cache line's *r-pointer* (the physical block id
    /// linking it to its R-cache parent).
    RPointerFlip,
    /// Flip an R-cache subentry's *inclusion* bit.
    RInclusionFlip,
    /// Flip an R-cache subentry's *buffer* bit.
    RBufferFlip,
    /// Flip an R-cache subentry's *vdirty* bit.
    RVdirtyFlip,
    /// Corrupt an R-cache subentry's *v-pointer* (the virtual block id
    /// locating its V-cache child).
    VPointerFlip,
    /// Flip a cached block's coherence state (shared ↔ private).
    CohStateFlip,
    /// Corrupt a TLB entry's translation.
    TlbEntryFlip,
    /// Drop one pending entry from the write-back buffer.
    WriteBufferDrop,
    /// Flip one data bit of a V-cache (or physical L1) line: the stored
    /// word no longer matches what was written.
    VDataBit,
    /// Flip one data bit of an R-cache / L2 line's stored word.
    RDataBit,
    /// Drop a bus transaction: the issuer sees a fabricated empty
    /// response and no other agent observes the request.
    BusDropTxn,
    /// Issue a bus transaction twice.
    BusDuplicateTxn,
    /// Deliver an invalidation to the bus but not to the snoopers.
    BusLostInvalidate,
}

impl FaultKind {
    /// Every fault kind, in report-label order.
    pub const ALL: [FaultKind; 15] = [
        FaultKind::VTagFlip,
        FaultKind::VStateFlip,
        FaultKind::RPointerFlip,
        FaultKind::RInclusionFlip,
        FaultKind::RBufferFlip,
        FaultKind::RVdirtyFlip,
        FaultKind::VPointerFlip,
        FaultKind::CohStateFlip,
        FaultKind::TlbEntryFlip,
        FaultKind::WriteBufferDrop,
        FaultKind::VDataBit,
        FaultKind::RDataBit,
        FaultKind::BusDropTxn,
        FaultKind::BusDuplicateTxn,
        FaultKind::BusLostInvalidate,
    ];

    /// Whether this kind corrupts a transaction in flight rather than
    /// resident state (armed at the bus wrapper, not the port).
    pub const fn is_bus_level(self) -> bool {
        matches!(
            self,
            FaultKind::BusDropTxn | FaultKind::BusDuplicateTxn | FaultKind::BusLostInvalidate
        )
    }

    /// Whether this kind corrupts a *data* array word (covered by
    /// [`DataProtection`]) rather than
    /// tag/state/linking metadata (covered by the parity knob).
    pub const fn is_data_level(self) -> bool {
        matches!(self, FaultKind::VDataBit | FaultKind::RDataBit)
    }

    /// Stable report label.
    pub const fn label(self) -> &'static str {
        match self {
            FaultKind::VTagFlip => "v-tag-flip",
            FaultKind::VStateFlip => "v-state-flip",
            FaultKind::RPointerFlip => "r-pointer-flip",
            FaultKind::RInclusionFlip => "r-inclusion-flip",
            FaultKind::RBufferFlip => "r-buffer-flip",
            FaultKind::RVdirtyFlip => "r-vdirty-flip",
            FaultKind::VPointerFlip => "v-pointer-flip",
            FaultKind::CohStateFlip => "coh-state-flip",
            FaultKind::TlbEntryFlip => "tlb-entry-flip",
            FaultKind::WriteBufferDrop => "write-buffer-drop",
            FaultKind::VDataBit => "v-data-bit",
            FaultKind::RDataBit => "r-data-bit",
            FaultKind::BusDropTxn => "bus-drop-txn",
            FaultKind::BusDuplicateTxn => "bus-duplicate-txn",
            FaultKind::BusLostInvalidate => "bus-lost-invalidate",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// What a successful injection corrupted, for deterministic reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// The kind applied.
    pub kind: FaultKind,
    /// Human-readable description of the corrupted target (block ids,
    /// bit values) — stable across runs for a fixed seed.
    pub detail: String,
}

/// Fault-injection port implemented by every hierarchy.
///
/// An injection happens *between* accesses: the campaign harness runs
/// the workload up to a chosen access index, calls
/// [`inject_fault`](Self::inject_fault) once, and resumes. Target
/// selection within the structure is a pure function of `seed` and the
/// hierarchy's deterministic iteration order, never of hash-map order
/// or ambient entropy.
pub trait FaultPort {
    /// Applies `kind` to this hierarchy's state, returning what was
    /// corrupted, or `None` when no applicable target exists (e.g. an
    /// empty write buffer for [`FaultKind::WriteBufferDrop`], or a
    /// bus-level kind, which the port never handles).
    ///
    /// With [`parity`](crate::config::HierarchyConfig::parity) enabled
    /// the corruption also records a poison syndrome that the hierarchy
    /// scrubs — detects and recovers — at its next public operation.
    fn inject_fault(&mut self, kind: FaultKind, seed: u64) -> Option<FaultRecord>;
}

/// A modeled parity syndrome: which entry of which structure faulted.
///
/// Keys are post-corruption lookup keys — parity identifies the faulted
/// array entry, not the pre-fault value, so recovery must work from the
/// corrupted key plus whatever metadata the entry still holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Poison {
    /// A first-level line (V-cache or physical L1).
    L1Line {
        /// The corruption applied.
        kind: FaultKind,
        /// Which first-level front holds the line.
        child: ChildCache,
        /// The line's (post-corruption) lookup key.
        key: BlockId,
    },
    /// An R-cache / L2 line.
    L2Line {
        /// The corruption applied.
        kind: FaultKind,
        /// The line's physical block id.
        p2: BlockId,
    },
    /// A TLB entry.
    TlbEntry {
        /// Address space of the corrupted translation.
        asid: Asid,
        /// Virtual page of the corrupted translation.
        vpn: Vpn,
    },
    /// A dropped write-buffer entry (the granule that vanished).
    WbEntry {
        /// First-level block id of the lost pending write.
        p1: BlockId,
    },
    /// A first-level *data* word (carries the corrupted SECDED codeword
    /// so scrub can decode the syndrome and correct in place).
    L1Data {
        /// Which first-level front holds the line.
        child: ChildCache,
        /// The line's lookup key (data faults never change the key).
        key: BlockId,
        /// The stored, corrupted codeword.
        stored: Codeword,
    },
    /// An R-cache / L2 subentry's *data* word.
    L2Data {
        /// The line's physical block id.
        p2: BlockId,
        /// Index of the corrupted subentry within the line.
        sub: usize,
        /// The stored, corrupted codeword.
        stored: Codeword,
    },
}

/// Flips the lowest tag bit of `key` for a cache with `set_bits`
/// index bits: the result maps to the same set under a different tag.
pub(crate) fn flip_tag_bit(key: BlockId, set_bits: u32) -> BlockId {
    BlockId::new(key.raw() ^ (1u64 << set_bits))
}

/// The `seed`-th of `items` (wrapping), or `None` when there are none:
/// the one target-selection rule. It never consults hash-map order, so
/// a fixed seed over a fixed state always names the same target.
pub(crate) fn pick<T: Copy>(items: &[T], seed: u64) -> Option<T> {
    if items.is_empty() {
        return None;
    }
    Some(items[(seed % items.len() as u64) as usize])
}

/// [`pick`] over the candidates flagged live, falling back to all
/// candidates when none is.
pub(crate) fn pick_preferring<T: Copy>(
    candidates: impl Iterator<Item = (T, bool)>,
    seed: u64,
) -> Option<T> {
    let mut any = Vec::new();
    let mut live = Vec::new();
    for (item, is_live) in candidates {
        any.push(item);
        if is_live {
            live.push(item);
        }
    }
    pick(if live.is_empty() { &any } else { &live }, seed)
}

/// Flips data bit `seed % 64` of `word`: the bit, the stored (corrupted)
/// SECDED codeword the syndrome record carries, and the corrupted word.
pub(crate) fn flip_data_bit(word: Version, seed: u64) -> (u32, Codeword, Version) {
    let bit = (seed % 64) as u32;
    let mut stored = Codeword::encode(word.raw());
    stored.flip_data_bit(bit);
    (bit, stored, word.with_bit_flipped(bit))
}

/// What the scrub does with a poisoned data word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Repair {
    /// The codeword decodes clean: nothing to do.
    Clean,
    /// SECDED located a single flipped bit: restore data bit `b` in place
    /// (`None` when a check bit flipped and the data view is intact).
    Correct(Option<u32>),
    /// Detected but not correctable here (plain parity, or a multi-bit
    /// upset): discard like any other detected corruption.
    Discard,
}

/// A hierarchy's protection state: which arrays are protected, and the
/// syndromes still waiting for the next scrub.
#[derive(Debug)]
pub(crate) struct Protection {
    /// Modeled parity on the tag/state arrays and the TLB.
    parity: bool,
    /// Modeled protection on the data arrays.
    data: DataProtection,
    /// Outstanding syndromes, scrubbed at the next operation.
    poison: Vec<Poison>,
}
vrcache_mem::clone_fields!(Protection {
    parity,
    data,
    poison
});

impl Protection {
    /// The protection `cfg` asks for, with nothing outstanding.
    pub(crate) fn new(cfg: &HierarchyConfig) -> Self {
        Protection {
            parity: cfg.parity,
            data: cfg.data_protection,
            poison: Vec::new(),
        }
    }

    /// How many syndromes await the next scrub.
    #[inline]
    pub(crate) fn outstanding(&self) -> usize {
        self.poison.len()
    }

    /// Records a tag/state/TLB syndrome (kept only under parity).
    pub(crate) fn record_meta(&mut self, poison: Poison) {
        if self.parity {
            self.poison.push(poison);
        }
    }

    /// Records a *data*-array syndrome: gated on the data-protection
    /// knob, not on metadata parity.
    pub(crate) fn record_data(&mut self, poison: Poison) {
        if self.data != DataProtection::None {
            self.poison.push(poison);
        }
    }

    /// Decodes a poisoned data word. Only SECDED can correct; plain data
    /// parity detects and discards.
    pub(crate) fn repair(&self, stored: Codeword) -> Repair {
        if self.data != DataProtection::Secded {
            return Repair::Discard;
        }
        match stored.syndrome_decode() {
            Decode::Clean => Repair::Clean,
            Decode::Corrected { data_bit } => Repair::Correct(data_bit),
            Decode::DoubleError => Repair::Discard,
        }
    }

    /// Corrupts the `seed`-th valid TLB translation.
    pub(crate) fn inject_tlb_flip(&mut self, tlb: &mut Tlb, seed: u64) -> Option<FaultRecord> {
        let (asid, vpn) = tlb.corrupt_entry(seed)?;
        self.record_meta(Poison::TlbEntry { asid, vpn });
        Some(FaultRecord {
            kind: FaultKind::TlbEntryFlip,
            detail: format!("tlb asid {} vpn {:#x}", asid.raw(), vpn.raw()),
        })
    }

    /// Drops the `seed`-th pending write-back.
    pub(crate) fn inject_wb_drop(
        &mut self,
        wb: &mut WriteBuffer<Version>,
        seed: u64,
    ) -> Option<FaultRecord> {
        let blocks: Vec<BlockId> = wb.iter().map(|e| e.block).collect();
        let p1 = pick(&blocks, seed)?;
        wb.coherence_take(p1)?;
        self.record_meta(Poison::WbEntry { p1 });
        Some(FaultRecord {
            kind: FaultKind::WriteBufferDrop,
            detail: format!("write buffer lost pending {p1}"),
        })
    }

    /// Retags the first line, from the `seed`-th on, whose flipped tag
    /// lands on a free key (a collision would be a double fault). The
    /// poison names the *new* key: parity flags the entry, not the
    /// pre-fault value.
    pub(crate) fn inject_tag_flip<M: DataLine>(
        &mut self,
        l1: &mut CacheArray<M>,
        seed: u64,
        label: &str,
    ) -> Option<FaultRecord> {
        let keys: Vec<BlockId> = l1.iter().map(|l| l.block).collect();
        let n = keys.len() as u64;
        let set_bits = l1.geometry().set_bits();
        let (key, flipped) = (0..n)
            .map(|off| keys[((seed + off) % n) as usize])
            .map(|key| (key, flip_tag_bit(key, set_bits)))
            .find(|&(_, flipped)| l1.peek(flipped).is_none())?;
        let mut meta = l1.invalidate(key)?.meta;
        let dirty = *meta.fields().0;
        // Same set, freed way: the fill takes the invalid way and
        // never consults the victim preference.
        let out = l1.fill(flipped, meta, |_| true);
        debug_assert!(out.evicted.is_none(), "same set, freed way");
        self.record_meta(Poison::L1Line {
            kind: FaultKind::VTagFlip,
            child: ChildCache::Data,
            key: flipped,
        });
        Some(FaultRecord {
            kind: FaultKind::VTagFlip,
            detail: format!("{label} {key} retagged {flipped} dirty={dirty}"),
        })
    }

    /// Flips the `seed`-th line's dirty bit.
    pub(crate) fn inject_state_flip<M: DataLine>(
        &mut self,
        l1: &mut CacheArray<M>,
        seed: u64,
        label: &str,
    ) -> Option<FaultRecord> {
        let key = pick_line(l1.iter(), seed)?;
        let (dirty_bit, _) = l1.peek_mut(key)?.meta.fields();
        let dirty = *dirty_bit;
        *dirty_bit = !dirty;
        self.record_meta(Poison::L1Line {
            kind: FaultKind::VStateFlip,
            child: ChildCache::Data,
            key,
        });
        Some(FaultRecord {
            kind: FaultKind::VStateFlip,
            detail: format!("{label} {key} dirty {dirty} -> {}", !dirty),
        })
    }

    /// Flips one data bit of the `seed`-th line's stored word. The poison
    /// carries the corrupted SECDED codeword so the scrub can decode it.
    pub(crate) fn inject_data_bit<M: DataLine>(
        &mut self,
        l1: &mut CacheArray<M>,
        seed: u64,
        label: &str,
    ) -> Option<FaultRecord> {
        let key = pick_line(l1.iter(), seed)?;
        let (dirty, word) = l1.peek_mut(key)?.meta.fields();
        let (dirty, version) = (*dirty, *word);
        let (bit, stored, corrupted) = flip_data_bit(version, seed);
        *word = corrupted;
        self.record_data(Poison::L1Data {
            child: ChildCache::Data,
            key,
            stored,
        });
        Some(FaultRecord {
            kind: FaultKind::VDataBit,
            detail: format!(
                "{label} {key} data bit {bit} flipped ({version} -> {corrupted}) dirty={dirty}"
            ),
        })
    }
}

/// The key of the `seed`-th of `lines`.
pub(crate) fn pick_line<'a, M: 'a>(
    lines: impl Iterator<Item = &'a Line<M>>,
    seed: u64,
) -> Option<BlockId> {
    let keys: Vec<BlockId> = lines.map(|l| l.block).collect();
    pick(&keys, seed)
}

/// The fields of a first-level line the shared injectors corrupt.
pub(crate) trait DataLine: Copy {
    /// The dirty bit and the stored data word.
    fn fields(&mut self) -> (&mut bool, &mut Version);
}

/// The parts of a hierarchy the shared scrub arms touch.
pub(crate) struct ScrubParts<'a> {
    /// The hierarchy's protection state.
    pub(crate) protection: &'a mut Protection,
    /// The TLB.
    pub(crate) tlb: &'a mut Tlb,
    /// The event counters.
    pub(crate) events: &'a mut HierarchyEvents,
    /// The R-cache / L2, in the organizations that have one.
    pub(crate) l2: Option<&'a mut RCache>,
}

/// What an organization supplies to the shared scrub: its parts and its
/// own policy for recovering a poisoned line at either level.
pub(crate) trait Scrub {
    /// Borrows the parts the shared recovery arms touch.
    fn scrub_parts(&mut self) -> ScrubParts<'_>;

    /// Recovers a poisoned first-level line: a tag, state or pointer
    /// flip, or a data word the protection could not correct.
    fn scrub_l1_line(&mut self, kind: FaultKind, child: ChildCache, key: BlockId);

    /// Recovers a poisoned second-level line.
    fn scrub_l2_line(&mut self, kind: FaultKind, p2: BlockId);

    /// The stored data word of first-level line `key`, for correction.
    fn l1_word(&mut self, child: ChildCache, key: BlockId) -> Option<&mut Version>;

    /// Detects and recovers outstanding syndromes. Runs at the entry of
    /// every public operation — before any lookup can consume corrupted
    /// state, exactly as a parity check fires on the array read itself.
    /// With protection off the list is always empty and this is one
    /// inlined check.
    #[inline]
    fn scrub_poison(&mut self) {
        if self.scrub_parts().protection.outstanding() != 0 {
            scrub_outstanding(self);
        }
    }
}

/// The slow path of [`Scrub::scrub_poison`]: recovers each outstanding
/// syndrome in recording order.
#[cold]
fn scrub_outstanding<H: Scrub + ?Sized>(h: &mut H) {
    let poisons = std::mem::take(&mut h.scrub_parts().protection.poison);
    for p in poisons {
        match p {
            Poison::L1Line { kind, child, key } => h.scrub_l1_line(kind, child, key),
            Poison::L2Line { kind, p2 } => h.scrub_l2_line(kind, p2),
            Poison::L1Data { child, key, stored } => {
                match h.scrub_parts().protection.repair(stored) {
                    Repair::Clean => {}
                    Repair::Correct(bit) => {
                        if let (Some(bit), Some(word)) = (bit, h.l1_word(child, key)) {
                            *word = word.with_bit_flipped(bit);
                        }
                        h.scrub_parts().events.secded_corrections += 1;
                    }
                    Repair::Discard => h.scrub_l1_line(FaultKind::VDataBit, child, key),
                }
            }
            Poison::L2Data { p2, sub, stored } => {
                let parts = h.scrub_parts();
                match parts.protection.repair(stored) {
                    Repair::Clean => {}
                    Repair::Correct(bit) => {
                        if let (Some(bit), Some(l2)) = (bit, parts.l2) {
                            l2.correct_data_bit(p2, sub, bit);
                        }
                        parts.events.secded_corrections += 1;
                    }
                    Repair::Discard => h.scrub_l2_line(FaultKind::RDataBit, p2),
                }
            }
            Poison::TlbEntry { asid, vpn } => {
                // A corrupted translation is simply re-walked: flush the
                // entry and let the next miss refill it.
                let parts = h.scrub_parts();
                parts.tlb.flush_asid_vpn(asid, vpn);
                parts.events.parity_refetches += 1;
            }
            Poison::WbEntry { p1 } => {
                // The pending write vanished: clear the dangling buffer
                // bit so the structure stays sound. The modified data is
                // gone — machine check.
                let parts = h.scrub_parts();
                if let Some((meta, si)) = parts.l2.and_then(|l2| l2.parent_mut(p1)) {
                    meta.subs[si].buffer = false;
                }
                parts.events.parity_machine_checks += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_kinds_have_unique_labels() {
        let mut labels: Vec<&str> = FaultKind::ALL.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), FaultKind::ALL.len());
    }

    /// `ALL` is the campaigns' fault axis: a kind missing from it is
    /// never injected. A new variant fails to compile here until it is
    /// named, then fails the count until `ALL` lists it.
    #[test]
    fn all_lists_every_kind_once() {
        for kind in FaultKind::ALL {
            match kind {
                FaultKind::VTagFlip
                | FaultKind::VStateFlip
                | FaultKind::RPointerFlip
                | FaultKind::RInclusionFlip
                | FaultKind::RBufferFlip
                | FaultKind::RVdirtyFlip
                | FaultKind::VPointerFlip
                | FaultKind::CohStateFlip
                | FaultKind::TlbEntryFlip
                | FaultKind::WriteBufferDrop
                | FaultKind::VDataBit
                | FaultKind::RDataBit
                | FaultKind::BusDropTxn
                | FaultKind::BusDuplicateTxn
                | FaultKind::BusLostInvalidate => {}
            }
        }
        let distinct: std::collections::BTreeSet<_> = FaultKind::ALL.into_iter().collect();
        assert_eq!(distinct.len(), 15, "one entry per variant named above");
    }

    #[test]
    fn bus_level_kinds_are_exactly_the_bus_ones() {
        let bus: Vec<FaultKind> = FaultKind::ALL
            .iter()
            .copied()
            .filter(|k| k.is_bus_level())
            .collect();
        assert_eq!(
            bus,
            vec![
                FaultKind::BusDropTxn,
                FaultKind::BusDuplicateTxn,
                FaultKind::BusLostInvalidate,
            ]
        );
    }

    #[test]
    fn data_level_kinds_are_exactly_the_data_ones() {
        let data: Vec<FaultKind> = FaultKind::ALL
            .iter()
            .copied()
            .filter(|k| k.is_data_level())
            .collect();
        assert_eq!(data, vec![FaultKind::VDataBit, FaultKind::RDataBit]);
        for k in data {
            assert!(!k.is_bus_level());
        }
    }

    #[test]
    fn pick_wraps_the_seed_and_prefers_live_candidates() {
        assert_eq!(pick::<u8>(&[], 3), None);
        assert_eq!(pick(&[10, 11, 12], 4), Some(11));
        let candidates = || [(1, false), (2, true), (3, false), (4, true)].into_iter();
        assert_eq!(pick_preferring(candidates(), 1), Some(4));
        assert_eq!(
            pick_preferring(candidates().map(|(c, _)| (c, false)), 1),
            Some(2)
        );
        assert_eq!(pick_preferring(std::iter::empty::<(u8, bool)>(), 0), None);
    }

    fn prot(parity: bool, data: DataProtection) -> Protection {
        let mut cfg = HierarchyConfig::direct_mapped(256, 4096, 16)
            .unwrap()
            .with_data_protection(data);
        cfg.parity = parity;
        Protection::new(&cfg)
    }

    #[test]
    fn syndromes_are_kept_only_where_protection_is_modeled() {
        let tlb = Poison::TlbEntry {
            asid: Asid::new(1),
            vpn: Vpn::new(2),
        };
        let data = Poison::L1Data {
            child: ChildCache::Data,
            key: BlockId::new(3),
            stored: Codeword::encode(7),
        };
        for (parity, dp, kept) in [
            (false, DataProtection::None, 0),
            (true, DataProtection::None, 1),
            (false, DataProtection::Parity, 1),
            (true, DataProtection::Secded, 2),
        ] {
            let mut p = prot(parity, dp);
            p.record_meta(tlb);
            p.record_data(data);
            assert_eq!(p.outstanding(), kept, "parity={parity} data={dp:?}");
        }
    }

    #[test]
    fn only_secded_corrects_a_data_word() {
        let mut single = Codeword::encode(0xABCD);
        single.flip_data_bit(5);
        let mut double = single;
        double.flip_data_bit(9);
        let secded = prot(false, DataProtection::Secded);
        assert_eq!(secded.repair(Codeword::encode(0xABCD)), Repair::Clean);
        assert_eq!(secded.repair(single), Repair::Correct(Some(5)));
        assert_eq!(secded.repair(double), Repair::Discard);
        for dp in [DataProtection::None, DataProtection::Parity] {
            assert_eq!(prot(true, dp).repair(single), Repair::Discard, "{dp:?}");
        }
    }

    #[derive(Debug, Clone, Copy)]
    struct Meta {
        dirty: bool,
        word: Version,
    }

    impl DataLine for Meta {
        fn fields(&mut self) -> (&mut bool, &mut Version) {
            (&mut self.dirty, &mut self.word)
        }
    }

    fn one_line(dirty: bool) -> CacheArray<Meta> {
        use vrcache_cache::geometry::CacheGeometry;
        use vrcache_cache::replacement::ReplacementPolicy;
        let g = CacheGeometry::direct_mapped(256, 16).unwrap();
        let mut a = CacheArray::new(g, ReplacementPolicy::Lru, 1);
        let word = Version::INITIAL.with_bit_flipped(3);
        a.fill(BlockId::new(0x21), Meta { dirty, word }, |_| true);
        a
    }

    #[test]
    fn first_level_injectors_corrupt_the_named_line() {
        let mut p = prot(true, DataProtection::Parity);
        let mut a = one_line(false);
        let rec = p.inject_tag_flip(&mut a, 0, "l1").expect("lone line");
        let flipped = flip_tag_bit(BlockId::new(0x21), 4);
        assert_eq!(
            rec.detail,
            format!("l1 {} retagged {flipped} dirty=false", BlockId::new(0x21))
        );
        assert!(a.peek(flipped).is_some() && a.peek(BlockId::new(0x21)).is_none());

        let mut a = one_line(true);
        let rec = p.inject_state_flip(&mut a, 7, "l1").expect("lone line");
        assert!(
            rec.detail.ends_with("dirty true -> false"),
            "{}",
            rec.detail
        );
        assert!(!a.peek(BlockId::new(0x21)).unwrap().meta.dirty);

        let mut a = one_line(true);
        let rec = p.inject_data_bit(&mut a, 64 + 2, "l1").expect("lone line");
        let was = Version::INITIAL.with_bit_flipped(3);
        let now = a.peek(BlockId::new(0x21)).unwrap().meta.word;
        assert_eq!(now, was.with_bit_flipped(2));
        assert!(rec.detail.contains("data bit 2 flipped") && rec.detail.ends_with("dirty=true"));
        assert_eq!(p.outstanding(), 3);
    }

    #[test]
    fn tag_flip_preserves_the_set() {
        let g = vrcache_cache::geometry::CacheGeometry::direct_mapped(256, 16).unwrap();
        let b = BlockId::new(0x37);
        let f = flip_tag_bit(b, g.set_bits());
        assert_ne!(f, b);
        assert_eq!(g.set_of(f), g.set_of(b));
    }
}
