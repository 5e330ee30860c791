//! Replacement policies and the flat per-array state they run on.
//!
//! The paper only requires that the V-cache use "any replacement algorithm
//! (e.g., LRU)" and that the R-cache prefer victims whose inclusion bits are
//! clear, falling back to a predefined policy otherwise. The policies here
//! therefore expose victim selection *over an arbitrary candidate mask* so a
//! caller can restrict the choice (inclusion-clear ways first) and fall back
//! to the full mask when no candidate qualifies.

use serde::{Deserialize, Serialize};

/// The replacement policies understood by [`ReplacementState`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
#[non_exhaustive]
pub enum ReplacementPolicy {
    /// True least-recently-used (timestamp based).
    #[default]
    Lru,
    /// First-in first-out (fill-time based; accesses do not refresh).
    Fifo,
    /// Pseudo-random (xorshift64*, deterministic per cache).
    Random,
    /// Tree pseudo-LRU (the classic binary-tree approximation).
    TreePlru,
}

/// The replacement state of a whole array of `sets` sets of up to 64
/// ways, held flat.
///
/// LRU and FIFO keep one timestamp per slot (`set * ways + way`): access
/// time for LRU, fill time for FIFO. Tree-PLRU keeps one word of tree
/// bits per set. Random keeps nothing; the caller threads a
/// deterministic draw through [`victim`](Self::victim). A direct-mapped
/// array keeps nothing under any policy: its victim is forced. One
/// allocation at most, however many sets, so cloning an array (as the
/// model checker does by the thousand) stays cheap.
#[derive(Debug, Serialize, Deserialize)]
pub struct ReplacementState {
    policy: ReplacementPolicy,
    ways: u32,
    /// Per-slot timestamps; empty unless the policy is LRU or FIFO and
    /// a set has more than one way.
    stamps: Vec<u64>,
    /// Per-set tree-PLRU bits (one per internal node; ways must be a
    /// power of two); empty unless the policy is tree-PLRU and a set
    /// has more than one way.
    plru: Vec<u64>,
}
vrcache_mem::clone_fields!(ReplacementState {
    policy,
    ways,
    stamps,
    plru
});

impl ReplacementState {
    /// Creates `policy` state for `sets` sets of `ways` ways each.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is 0 or greater than 64.
    pub fn new(policy: ReplacementPolicy, sets: usize, ways: u32) -> Self {
        assert!(ways > 0 && ways <= 64, "ways must be in 1..=64, got {ways}");
        let tracked = |uses: bool, len: usize| {
            if uses && ways > 1 {
                vec![0; len]
            } else {
                Vec::new()
            }
        };
        ReplacementState {
            policy,
            ways,
            stamps: tracked(
                matches!(policy, ReplacementPolicy::Lru | ReplacementPolicy::Fifo),
                sets * ways as usize,
            ),
            plru: tracked(policy == ReplacementPolicy::TreePlru, sets),
        }
    }

    /// The policy this state implements.
    #[inline]
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Number of ways per set.
    #[inline]
    pub fn ways(&self) -> u32 {
        self.ways
    }

    /// Records an access (hit) to `way` of `set` at logical time `now`.
    #[inline]
    pub fn on_access(&mut self, set: usize, way: u32, now: u64) {
        if self.ways == 1 {
            return;
        }
        match self.policy {
            ReplacementPolicy::Lru => self.stamps[set * self.ways as usize + way as usize] = now,
            ReplacementPolicy::Fifo => {} // fifo order fixed at fill
            ReplacementPolicy::Random => {}
            ReplacementPolicy::TreePlru => self.touch_plru(set, way),
        }
    }

    /// Records a fill of `way` of `set` at logical time `now`.
    #[inline]
    pub fn on_fill(&mut self, set: usize, way: u32, now: u64) {
        if self.ways == 1 {
            return;
        }
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                self.stamps[set * self.ways as usize + way as usize] = now;
            }
            ReplacementPolicy::Random => {}
            ReplacementPolicy::TreePlru => self.touch_plru(set, way),
        }
    }

    /// Picks a victim of `set` among the ways whose bit is set in
    /// `candidates`; bits at and above the way count are ignored, so
    /// `u64::MAX` means "any way".
    ///
    /// Returns `None` when `candidates` selects no way. `rng_draw` supplies
    /// entropy for [`ReplacementPolicy::Random`] (callers thread a
    /// deterministic stream through).
    pub fn victim(&self, set: usize, candidates: u64, rng_draw: u64) -> Option<u32> {
        let ways = self.ways;
        let mask = if ways == 64 {
            u64::MAX
        } else {
            (1u64 << ways) - 1
        };
        let candidates = candidates & mask;
        if candidates == 0 {
            return None;
        }
        if ways == 1 {
            return Some(0);
        }
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                let stamps = &self.stamps[set * ways as usize..][..ways as usize];
                (0..ways)
                    .filter(|w| candidates & (1 << w) != 0)
                    .min_by_key(|w| stamps[*w as usize])
            }
            ReplacementPolicy::Random => {
                let n = candidates.count_ones() as u64;
                let pick = (rng_draw % n) as u32;
                Some(nth_set_bit(candidates, pick))
            }
            ReplacementPolicy::TreePlru => Some(self.plru_victim(set, candidates)),
        }
    }

    fn touch_plru(&mut self, set: usize, way: u32) {
        // Walk from the root; at each node set the bit to point *away* from
        // the accessed way.
        let ways = self.ways;
        debug_assert!(
            ways.is_power_of_two(),
            "tree-plru requires power-of-two ways"
        );
        let plru = &mut self.plru[set];
        let levels = ways.trailing_zeros();
        let mut node = 0u32; // node index within the implicit tree, root = 0
        for level in 0..levels {
            let shift = levels - 1 - level;
            let bit = (way >> shift) & 1;
            // Point away from the taken direction.
            if bit == 0 {
                *plru |= 1 << node;
            } else {
                *plru &= !(1 << node);
            }
            node = 2 * node + 1 + bit;
        }
    }

    fn plru_victim(&self, set: usize, candidates: u64) -> u32 {
        let plru = self.plru[set];
        let levels = self.ways.trailing_zeros();
        // Follow the tree bits; if the pointed-to subtree has no candidate,
        // take the other side.
        let mut node = 0u32;
        let mut way = 0u32;
        for level in 0..levels {
            let shift = levels - 1 - level;
            let preferred = ((plru >> node) & 1) as u32;
            let subtree_mask = |dir: u32| -> u64 {
                let lo = (way | (dir << shift)) & !((1 << shift) - 1);
                let width = 1u64 << shift;
                let bits = if width == 64 {
                    u64::MAX
                } else {
                    (1u64 << width) - 1
                };
                bits << lo
            };
            let dir = if candidates & subtree_mask(preferred) != 0 {
                preferred
            } else {
                1 - preferred
            };
            way |= dir << shift;
            node = 2 * node + 1 + dir;
        }
        way
    }
}

/// Returns the position of the `n`-th (0-based) set bit of `mask`.
fn nth_set_bit(mask: u64, n: u32) -> u32 {
    let mut seen = 0;
    for bit in 0..64 {
        if mask & (1 << bit) != 0 {
            if seen == n {
                return bit;
            }
            seen += 1;
        }
    }
    panic!("mask {mask:#x} has fewer than {n} set bits");
}

/// A tiny deterministic xorshift64* stream used for the Random policy.
///
/// Not cryptographic; chosen for reproducibility without pulling `rand` into
/// the non-dev dependency tree of the hot simulation path.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct XorShift64 {
    state: u64,
}

impl XorShift64 {
    /// Creates a stream from a nonzero seed (zero is mapped to a fixed odd
    /// constant).
    pub fn new(seed: u64) -> Self {
        XorShift64 {
            state: if seed == 0 {
                0x9E37_79B9_7F4A_7C15
            } else {
                seed
            },
        }
    }

    /// Returns the next value of the stream.
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [ReplacementPolicy; 4] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
        ReplacementPolicy::TreePlru,
    ];

    #[test]
    fn lru_picks_least_recent() {
        let mut s = ReplacementState::new(ReplacementPolicy::Lru, 1, 4);
        for (way, t) in [(0, 10), (1, 5), (2, 20), (3, 15)] {
            s.on_fill(0, way, t);
        }
        assert_eq!(s.victim(0, 0b1111, 0), Some(1));
        s.on_access(0, 1, 30);
        assert_eq!(s.victim(0, 0b1111, 0), Some(0));
    }

    #[test]
    fn lru_respects_candidate_mask() {
        let mut s = ReplacementState::new(ReplacementPolicy::Lru, 1, 4);
        for (way, t) in [(0, 1), (1, 2), (2, 3), (3, 4)] {
            s.on_fill(0, way, t);
        }
        assert_eq!(s.victim(0, 0b1100, 0), Some(2));
        assert_eq!(s.victim(0, 0b1000, 0), Some(3));
        assert_eq!(s.victim(0, 0, 0), None);
    }

    #[test]
    fn fifo_ignores_accesses() {
        let mut s = ReplacementState::new(ReplacementPolicy::Fifo, 1, 2);
        s.on_fill(0, 0, 1);
        s.on_fill(0, 1, 2);
        s.on_access(0, 0, 100); // must not refresh way 0
        assert_eq!(s.victim(0, 0b11, 0), Some(0));
    }

    #[test]
    fn random_is_deterministic_and_in_mask() {
        let s = ReplacementState::new(ReplacementPolicy::Random, 1, 8);
        let mut rng = XorShift64::new(42);
        for _ in 0..100 {
            let draw = rng.next_u64();
            let v = s.victim(0, 0b1010_1010, draw).unwrap();
            assert!([1, 3, 5, 7].contains(&v));
            // Same draw, same victim.
            assert_eq!(s.victim(0, 0b1010_1010, draw), Some(v));
        }
    }

    #[test]
    fn candidate_bits_beyond_the_way_count_are_masked() {
        // A caller passing a sloppy all-ones mask must still get a real
        // way back: bits at and above `ways` are stripped before the
        // policy looks at the candidates. Way 63's bit would win a
        // `rng_draw` of 63 if the mask leaked through.
        for p in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::Fifo,
            ReplacementPolicy::Random,
        ] {
            let v = ReplacementState::new(p, 1, 4)
                .victim(0, u64::MAX, 63)
                .unwrap();
            assert!(v < 4, "{p:?} picked way {v} of a 4-way set");
        }
        // The 64-way edge case takes the all-ways mask path (a plain
        // `(1 << ways) - 1` would overflow there).
        let lru = ReplacementState::new(ReplacementPolicy::Lru, 1, 64);
        assert_eq!(lru.victim(0, u64::MAX, 0), Some(0));
        let random = ReplacementState::new(ReplacementPolicy::Random, 1, 64);
        assert_eq!(random.victim(0, 1 << 63, 5), Some(63));
    }

    #[test]
    fn random_covers_all_candidates() {
        let s = ReplacementState::new(ReplacementPolicy::Random, 1, 4);
        let mut rng = XorShift64::new(7);
        let mut seen = [false; 4];
        for _ in 0..200 {
            let v = s.victim(0, 0b1111, rng.next_u64()).unwrap();
            seen[v as usize] = true;
        }
        assert!(
            seen.iter().all(|&b| b),
            "all ways should eventually be picked"
        );
    }

    #[test]
    fn plru_single_way() {
        let mut s = ReplacementState::new(ReplacementPolicy::TreePlru, 1, 1);
        s.on_access(0, 0, 0);
        assert_eq!(s.victim(0, 1, 0), Some(0));
    }

    #[test]
    fn plru_points_away_from_recent() {
        let mut s = ReplacementState::new(ReplacementPolicy::TreePlru, 1, 4);
        // Touch ways 0..3 in order; victim should then be 0 (least recently
        // pointed-to path after touching 3 last: root points left, left
        // subtree points to 0's sibling... exact tree semantics: after
        // touching 0,1,2,3 the victim is 0).
        for w in 0..4 {
            s.on_access(0, w, w as u64);
        }
        assert_eq!(s.victim(0, 0b1111, 0), Some(0));
        s.on_access(0, 0, 10);
        let v = s.victim(0, 0b1111, 0).unwrap();
        assert_ne!(v, 0, "most recently used way must not be the victim");
    }

    #[test]
    fn plru_falls_back_when_preferred_subtree_excluded() {
        let mut s = ReplacementState::new(ReplacementPolicy::TreePlru, 1, 4);
        for w in 0..4 {
            s.on_access(0, w, w as u64);
        }
        // Victim would be 0; exclude the left subtree entirely.
        let v = s.victim(0, 0b1100, 0).unwrap();
        assert!(v == 2 || v == 3);
    }

    /// An independent tree-PLRU oracle built on interval halving instead of
    /// bit-shift walks, so a slip in either formulation shows up as a
    /// disagreement.
    struct RefPlru {
        /// Per-internal-node flag: `true` means the victim search prefers
        /// the upper half of the node's way interval.
        prefer_upper: Vec<bool>,
        ways: u32,
    }

    impl RefPlru {
        fn new(ways: u32) -> Self {
            RefPlru {
                prefer_upper: vec![false; ways.saturating_sub(1) as usize],
                ways,
            }
        }

        fn touch(&mut self, way: u32) {
            let (mut lo, mut hi, mut node) = (0u32, self.ways, 0usize);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                if way < mid {
                    self.prefer_upper[node] = true;
                    node = 2 * node + 1;
                    hi = mid;
                } else {
                    self.prefer_upper[node] = false;
                    node = 2 * node + 2;
                    lo = mid;
                }
            }
        }

        fn victim(&self, candidates: u64) -> Option<u32> {
            let full = if self.ways == 64 {
                u64::MAX
            } else {
                (1u64 << self.ways) - 1
            };
            if candidates & full == 0 {
                return None;
            }
            let has = |a: u32, b: u32| (a..b).any(|w| candidates & (1 << w) != 0);
            let (mut lo, mut hi, mut node) = (0u32, self.ways, 0usize);
            while hi - lo > 1 {
                let mid = (lo + hi) / 2;
                let upper = if self.prefer_upper[node] {
                    has(mid, hi)
                } else {
                    !has(lo, mid)
                };
                if upper {
                    node = 2 * node + 2;
                    lo = mid;
                } else {
                    node = 2 * node + 1;
                    hi = mid;
                }
            }
            Some(lo)
        }
    }

    #[test]
    fn plru_matches_the_reference_model() {
        // Three sets share the flat state; each runs its own reference
        // tree, so a set stepping on its neighbour's bits diverges too.
        const SETS: usize = 3;
        for ways in [2u32, 4, 8, 16] {
            let mut s = ReplacementState::new(ReplacementPolicy::TreePlru, SETS, ways);
            let mut r: Vec<RefPlru> = (0..SETS).map(|_| RefPlru::new(ways)).collect();
            let full = (1u64 << ways) - 1;
            let mut x = 0x0123_4567_89AB_CDEFu64;
            for step in 0..400u64 {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let way = ((x >> 33) as u32) % ways;
                let set = (x >> 50) as usize % SETS;
                s.on_access(set, way, step);
                r[set].touch(way);
                for (set, r) in r.iter().enumerate() {
                    assert_eq!(
                        s.victim(set, full, 0),
                        r.victim(full),
                        "full-mask victim diverged: ways={ways} set={set} step={step}"
                    );
                    let mask = (x >> 7) & full;
                    assert_eq!(
                        s.victim(set, mask, 0),
                        r.victim(mask),
                        "masked victim diverged: ways={ways} set={set} step={step} mask={mask:#b}"
                    );
                }
            }
        }
    }

    #[test]
    fn victim_none_on_empty_mask() {
        for p in ALL {
            for ways in [1, 4] {
                let s = ReplacementState::new(p, 2, ways);
                assert_eq!(s.victim(1, 0, 1), None, "{p:?} {ways}-way");
            }
        }
    }

    #[test]
    fn mask_is_clipped_to_ways() {
        let s = ReplacementState::new(ReplacementPolicy::Lru, 1, 2);
        // Bits above way 1 must be ignored.
        assert_eq!(s.victim(0, 0b100, 0), None);
        let dm = ReplacementState::new(ReplacementPolicy::Lru, 1, 1);
        assert_eq!(dm.victim(0, 0b10, 0), None);
    }

    #[test]
    fn sets_keep_separate_state() {
        // Way 0 is the oldest in set 0 and the newest in set 1: each
        // set must answer from its own slots.
        let mut lru = ReplacementState::new(ReplacementPolicy::Lru, 2, 2);
        lru.on_fill(0, 0, 1);
        lru.on_fill(0, 1, 2);
        lru.on_fill(1, 1, 3);
        lru.on_fill(1, 0, 4);
        assert_eq!(lru.victim(0, 0b11, 0), Some(0));
        assert_eq!(lru.victim(1, 0b11, 0), Some(1));
        lru.on_access(0, 0, 5);
        assert_eq!(lru.victim(0, 0b11, 0), Some(1));
        assert_eq!(lru.victim(1, 0b11, 0), Some(1));
        let mut plru = ReplacementState::new(ReplacementPolicy::TreePlru, 2, 2);
        plru.on_access(0, 0, 0);
        plru.on_access(1, 1, 0);
        assert_eq!(plru.victim(0, 0b11, 0), Some(1));
        assert_eq!(plru.victim(1, 0b11, 0), Some(0));
    }

    #[test]
    fn state_is_flat_and_sized_by_policy() {
        let sets = 16;
        for p in ALL {
            let s = ReplacementState::new(p, sets, 4);
            assert_eq!((s.policy(), s.ways()), (p, 4));
            let stamps = matches!(p, ReplacementPolicy::Lru | ReplacementPolicy::Fifo);
            assert_eq!(s.stamps.len(), if stamps { sets * 4 } else { 0 }, "{p:?}");
            let plru = p == ReplacementPolicy::TreePlru;
            assert_eq!(s.plru.len(), if plru { sets } else { 0 }, "{p:?}");
            // A direct-mapped array's victim is forced: no state at all,
            // and updates are no-ops.
            let mut dm = ReplacementState::new(p, sets, 1);
            assert!(dm.stamps.is_empty() && dm.plru.is_empty(), "{p:?}");
            dm.on_fill(sets - 1, 0, 1);
            dm.on_access(sets - 1, 0, 2);
            assert_eq!(dm.victim(sets - 1, u64::MAX, 7), Some(0), "{p:?}");
        }
    }

    #[test]
    fn nth_set_bit_works() {
        assert_eq!(nth_set_bit(0b1011, 0), 0);
        assert_eq!(nth_set_bit(0b1011, 1), 1);
        assert_eq!(nth_set_bit(0b1011, 2), 3);
    }

    #[test]
    #[should_panic(expected = "ways must be in")]
    fn zero_ways_rejected() {
        let _ = ReplacementState::new(ReplacementPolicy::Lru, 1, 0);
    }

    #[test]
    fn xorshift_streams_differ_by_seed() {
        let mut a = XorShift64::new(1);
        let mut b = XorShift64::new(2);
        assert_ne!(a.next_u64(), b.next_u64());
        // Zero seed is remapped, not degenerate.
        let mut z = XorShift64::new(0);
        assert_ne!(z.next_u64(), 0);
    }
}
