//! A set-associative translation lookaside buffer model.
//!
//! In the paper's V-R hierarchy the TLB sits *at the second level*: it is
//! probed in parallel with the V-cache and its result is only consumed on a
//! V-cache miss. In the R-R baselines it sits in front of the first-level
//! cache, which is exactly the serialization penalty the paper's Figures 4-6
//! sweep (`slow-down percentage`). Either way the structure is the same; the
//! placement only changes the timing model.

use serde::{Deserialize, Serialize};

use crate::addr::{Asid, Ppn, Vpn};
use crate::error::MemError;

/// Configuration of a [`Tlb`].
///
/// # Example
///
/// ```
/// use vrcache_mem::tlb::TlbConfig;
/// # fn main() -> Result<(), vrcache_mem::MemError> {
/// let cfg = TlbConfig::new(64, 2)?; // 64 entries, 2-way
/// assert_eq!(cfg.sets(), 32);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbConfig {
    entries: u32,
    ways: u32,
}

impl TlbConfig {
    /// Creates a configuration with `entries` total entries organized in
    /// `ways`-way sets.
    ///
    /// # Errors
    ///
    /// Returns an error if either argument is zero, not a power of two, or if
    /// `ways > entries`.
    pub fn new(entries: u32, ways: u32) -> Result<Self, MemError> {
        if entries == 0 {
            return Err(MemError::Zero {
                what: "tlb entries",
            });
        }
        if ways == 0 {
            return Err(MemError::Zero { what: "tlb ways" });
        }
        if !entries.is_power_of_two() {
            return Err(MemError::NotPowerOfTwo {
                what: "tlb entries",
                value: entries as u64,
            });
        }
        if !ways.is_power_of_two() {
            return Err(MemError::NotPowerOfTwo {
                what: "tlb ways",
                value: ways as u64,
            });
        }
        if ways > entries {
            return Err(MemError::TooSmall {
                what: "tlb entries",
                value: entries as u64,
                min: ways as u64,
            });
        }
        Ok(TlbConfig { entries, ways })
    }

    /// Total number of entries.
    pub fn entries(&self) -> u32 {
        self.entries
    }

    /// Associativity.
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Number of sets (`entries / ways`).
    pub fn sets(&self) -> u32 {
        self.entries / self.ways
    }
}

impl Default for TlbConfig {
    /// 64 entries, 2-way set-associative: a common late-1980s design point.
    fn default() -> Self {
        TlbConfig {
            entries: 64,
            ways: 2,
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    valid: bool,
    asid: Asid,
    vpn: Vpn,
    ppn: Ppn,
    /// LRU timestamp: larger is more recent.
    stamp: u64,
}

impl TlbEntry {
    const INVALID: TlbEntry = TlbEntry {
        valid: false,
        asid: Asid::new(0),
        vpn: Vpn::new(0),
        ppn: Ppn::new(0),
        stamp: 0,
    };
}

/// A set-associative, ASID-tagged TLB with true-LRU replacement.
///
/// The TLB stores `(asid, vpn) -> ppn` mappings. It does not walk the page
/// table itself: on a miss the caller translates via
/// [`MemoryMap`](crate::page_table::MemoryMap) and calls [`Tlb::fill`], or
/// passes the translation to [`Tlb::translate`], which does both steps.
/// It keeps no statistics: callers count misses from `translate`'s result.
///
/// # Example
///
/// ```
/// use vrcache_mem::addr::{Asid, Ppn, Vpn};
/// use vrcache_mem::tlb::{Tlb, TlbConfig};
///
/// # fn main() -> Result<(), vrcache_mem::MemError> {
/// let mut tlb = Tlb::new(TlbConfig::new(8, 2)?);
/// let (a, v, p) = (Asid::new(1), Vpn::new(0x12), Ppn::new(0x99));
/// assert_eq!(tlb.lookup(a, v), None);
/// tlb.fill(a, v, p);
/// assert_eq!(tlb.lookup(a, v), Some(p));
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Tlb {
    config: TlbConfig,
    /// `sets - 1`: the vpn bits that pick a set.
    set_mask: u32,
    entries: Vec<TlbEntry>,
    clock: u64,
}
crate::clone_fields!(Tlb {
    config,
    set_mask,
    entries,
    clock
});

impl Tlb {
    /// Creates an empty TLB with the given configuration.
    pub fn new(config: TlbConfig) -> Self {
        Tlb {
            config,
            set_mask: config.sets() - 1,
            entries: vec![TlbEntry::INVALID; config.entries() as usize],
            clock: 0,
        }
    }

    /// The configuration this TLB was built with.
    pub fn config(&self) -> TlbConfig {
        self.config
    }

    fn set_range(&self, vpn: Vpn) -> std::ops::Range<usize> {
        let set = (vpn.raw() as u32) & self.set_mask;
        let start = (set * self.config.ways()) as usize;
        start..start + self.config.ways() as usize
    }

    /// Looks up a translation, updating LRU state.
    pub fn lookup(&mut self, asid: Asid, vpn: Vpn) -> Option<Ppn> {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(vpn);
        for e in &mut self.entries[range] {
            if e.valid && e.asid == asid && e.vpn == vpn {
                e.stamp = clock;
                return Some(e.ppn);
            }
        }
        None
    }

    /// Checks for a translation without updating LRU state.
    pub fn peek(&self, asid: Asid, vpn: Vpn) -> Option<Ppn> {
        let range = self.set_range(vpn);
        self.entries[range]
            .iter()
            .find(|e| e.valid && e.asid == asid && e.vpn == vpn)
            .map(|e| e.ppn)
    }

    /// Installs a translation after a miss, evicting the LRU entry of the
    /// set if necessary.
    pub fn fill(&mut self, asid: Asid, vpn: Vpn, ppn: Ppn) {
        self.clock += 1;
        let clock = self.clock;
        let range = self.set_range(vpn);
        // Refill over an existing matching or invalid entry first.
        let set = &mut self.entries[range];
        if let Some(e) = set
            .iter_mut()
            .find(|e| e.valid && e.asid == asid && e.vpn == vpn)
        {
            e.ppn = ppn;
            e.stamp = clock;
            return;
        }
        if let Some(e) = set.iter_mut().find(|e| !e.valid) {
            *e = TlbEntry {
                valid: true,
                asid,
                vpn,
                ppn,
                stamp: clock,
            };
            return;
        }
        let victim = set
            .iter_mut()
            .min_by_key(|e| e.stamp)
            .expect("set has at least one way");
        *victim = TlbEntry {
            valid: true,
            asid,
            vpn,
            ppn,
            stamp: clock,
        };
    }

    /// One translation step: looks `(asid, vpn)` up and, on a miss,
    /// installs `ppn` (the page walk's answer). Returns whether the
    /// lookup hit.
    pub fn translate(&mut self, asid: Asid, vpn: Vpn, ppn: Ppn) -> bool {
        let hit = self.lookup(asid, vpn).is_some();
        if !hit {
            self.fill(asid, vpn, ppn);
        }
        hit
    }

    /// Invalidates the entry for `(asid, vpn)` if present (a TLB
    /// shootdown). Returns whether an entry was dropped.
    pub fn flush_asid_vpn(&mut self, asid: Asid, vpn: Vpn) -> bool {
        let range = self.set_range(vpn);
        for e in &mut self.entries[range] {
            if e.valid && e.asid == asid && e.vpn == vpn {
                e.valid = false;
                return true;
            }
        }
        false
    }

    /// Invalidates every entry belonging to `asid`, returning how many were
    /// dropped.
    pub fn flush_asid(&mut self, asid: Asid) -> u64 {
        let mut n = 0;
        for e in &mut self.entries {
            if e.valid && e.asid == asid {
                e.valid = false;
                n += 1;
            }
        }
        n
    }

    /// Invalidates every entry, returning how many were dropped.
    pub fn flush_all(&mut self) -> u64 {
        let mut n = 0;
        for e in &mut self.entries {
            if e.valid {
                e.valid = false;
                n += 1;
            }
        }
        n
    }

    /// Number of currently valid entries.
    pub fn valid_entries(&self) -> usize {
        self.entries.iter().filter(|e| e.valid).count()
    }

    /// Fault-injection hook: corrupts one valid entry's translation by
    /// flipping the low bit of its PPN, deterministically selected by
    /// `seed` over the valid entries in index order. Returns the `(asid,
    /// vpn)` key of the corrupted entry — the handle a parity scrubber
    /// needs to flush it — or `None` when the TLB is empty.
    pub fn corrupt_entry(&mut self, seed: u64) -> Option<(Asid, Vpn)> {
        let valid: Vec<usize> = self
            .entries
            .iter()
            .enumerate()
            .filter(|(_, e)| e.valid)
            .map(|(i, _)| i)
            .collect();
        if valid.is_empty() {
            return None;
        }
        let idx = valid[(seed % valid.len() as u64) as usize];
        let e = &mut self.entries[idx];
        e.ppn = Ppn::new(e.ppn.raw() ^ 1);
        Some((e.asid, e.vpn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(entries: u32, ways: u32) -> Tlb {
        Tlb::new(TlbConfig::new(entries, ways).unwrap())
    }

    #[test]
    fn config_validation() {
        assert!(TlbConfig::new(0, 1).is_err());
        assert!(TlbConfig::new(8, 0).is_err());
        assert!(TlbConfig::new(6, 2).is_err());
        assert!(TlbConfig::new(8, 3).is_err());
        assert!(TlbConfig::new(4, 8).is_err());
        let c = TlbConfig::new(64, 4).unwrap();
        assert_eq!(c.sets(), 16);
        assert_eq!(c.ways(), 4);
        assert_eq!(c.entries(), 64);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut t = tlb(8, 2);
        let a = Asid::new(3);
        assert_eq!(t.lookup(a, Vpn::new(5)), None);
        t.fill(a, Vpn::new(5), Ppn::new(50));
        assert_eq!(t.lookup(a, Vpn::new(5)), Some(Ppn::new(50)));
    }

    #[test]
    fn asid_disambiguates() {
        let mut t = tlb(8, 2);
        t.fill(Asid::new(1), Vpn::new(5), Ppn::new(10));
        t.fill(Asid::new(2), Vpn::new(5), Ppn::new(20));
        assert_eq!(t.lookup(Asid::new(1), Vpn::new(5)), Some(Ppn::new(10)));
        assert_eq!(t.lookup(Asid::new(2), Vpn::new(5)), Some(Ppn::new(20)));
    }

    #[test]
    fn lru_evicts_least_recent() {
        // 1 set, 2 ways: vpns 0,4,8 all map to set 0 in a 4-set config; use
        // a 2-entry fully-associative tlb instead for clarity.
        let mut t = tlb(2, 2);
        let a = Asid::new(1);
        t.fill(a, Vpn::new(0), Ppn::new(100));
        t.fill(a, Vpn::new(1), Ppn::new(101));
        // Touch vpn 0 so vpn 1 is LRU.
        assert!(t.lookup(a, Vpn::new(0)).is_some());
        t.fill(a, Vpn::new(2), Ppn::new(102));
        assert_eq!(t.peek(a, Vpn::new(1)), None, "lru entry evicted");
        assert_eq!(t.peek(a, Vpn::new(0)), Some(Ppn::new(100)));
        assert_eq!(t.valid_entries(), 2);
    }

    #[test]
    fn refill_updates_existing_entry() {
        let mut t = tlb(4, 2);
        let a = Asid::new(1);
        t.fill(a, Vpn::new(3), Ppn::new(30));
        t.fill(a, Vpn::new(3), Ppn::new(31));
        assert_eq!(t.peek(a, Vpn::new(3)), Some(Ppn::new(31)));
        assert_eq!(t.valid_entries(), 1);
    }

    #[test]
    fn flush_asid_only_touches_one_space() {
        let mut t = tlb(8, 2);
        t.fill(Asid::new(1), Vpn::new(1), Ppn::new(1));
        t.fill(Asid::new(1), Vpn::new(2), Ppn::new(2));
        t.fill(Asid::new(2), Vpn::new(3), Ppn::new(3));
        assert_eq!(t.flush_asid(Asid::new(1)), 2);
        assert_eq!(t.peek(Asid::new(2), Vpn::new(3)), Some(Ppn::new(3)));
        assert_eq!(t.valid_entries(), 1);
    }

    #[test]
    fn flush_single_entry() {
        let mut t = tlb(8, 2);
        t.fill(Asid::new(1), Vpn::new(1), Ppn::new(1));
        t.fill(Asid::new(1), Vpn::new(2), Ppn::new(2));
        assert!(t.flush_asid_vpn(Asid::new(1), Vpn::new(1)));
        assert!(!t.flush_asid_vpn(Asid::new(1), Vpn::new(1)));
        assert_eq!(t.peek(Asid::new(1), Vpn::new(2)), Some(Ppn::new(2)));
    }

    #[test]
    fn flush_all_empties() {
        let mut t = tlb(8, 2);
        t.fill(Asid::new(1), Vpn::new(1), Ppn::new(1));
        t.fill(Asid::new(2), Vpn::new(9), Ppn::new(2));
        assert_eq!(t.flush_all(), 2);
        assert_eq!(t.valid_entries(), 0);
    }

    #[test]
    fn translate_fills_on_miss() {
        let mut t = tlb(8, 2);
        let a = Asid::new(1);
        assert!(!t.translate(a, Vpn::new(7), Ppn::new(70)));
        assert_eq!(t.peek(a, Vpn::new(7)), Some(Ppn::new(70)));
        // A hit keeps the cached translation: nothing is refilled.
        assert!(t.translate(a, Vpn::new(7), Ppn::new(71)));
        assert_eq!(t.peek(a, Vpn::new(7)), Some(Ppn::new(70)));
        assert_eq!(t.valid_entries(), 1);
    }

    #[test]
    fn corrupt_entry_flips_a_translation_deterministically() {
        let mut t = tlb(8, 2);
        assert_eq!(t.corrupt_entry(0), None, "empty tlb has nothing to flip");
        t.fill(Asid::new(1), Vpn::new(1), Ppn::new(0x10));
        t.fill(Asid::new(1), Vpn::new(2), Ppn::new(0x20));
        let key = t.corrupt_entry(7).unwrap();
        let wrong = t.peek(key.0, key.1).unwrap();
        assert_eq!(wrong.raw() & 1, 1, "low ppn bit flipped");
        // Same seed on an identically-built TLB picks the same victim.
        let mut u = tlb(8, 2);
        u.fill(Asid::new(1), Vpn::new(1), Ppn::new(0x10));
        u.fill(Asid::new(1), Vpn::new(2), Ppn::new(0x20));
        assert_eq!(u.corrupt_entry(7).unwrap(), key);
    }

    #[test]
    fn peek_does_not_disturb_lru() {
        // One 2-way set: a peek at vpn 0 must not save it from eviction.
        let mut t = tlb(2, 2);
        let a = Asid::new(1);
        t.fill(a, Vpn::new(0), Ppn::new(100));
        t.fill(a, Vpn::new(1), Ppn::new(101));
        assert_eq!(t.peek(a, Vpn::new(0)), Some(Ppn::new(100)));
        assert_eq!(t.peek(a, Vpn::new(9)), None);
        t.fill(a, Vpn::new(2), Ppn::new(102));
        assert_eq!(t.peek(a, Vpn::new(0)), None, "the peeked entry stayed lru");
        assert_eq!(t.peek(a, Vpn::new(1)), Some(Ppn::new(101)));
    }
}
