//! Model-based property tests: [`CacheArray`] against a naive reference
//! model, for every replacement policy.

use std::collections::HashMap;

use proptest::prelude::*;
use vrcache_cache::array::CacheArray;
use vrcache_cache::geometry::{BlockId, CacheGeometry};
use vrcache_cache::replacement::{ReplacementPolicy, XorShift64};

#[derive(Debug, Clone)]
enum Op {
    Lookup(u64),
    Fill(u64, u32),
    Invalidate(u64),
}

fn op_strategy(blocks: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..blocks, any::<u32>()).prop_map(|(b, m)| Op::Fill(b, m)),
        (0..blocks).prop_map(Op::Lookup),
        (0..blocks).prop_map(Op::Invalidate),
    ]
}

fn policies() -> [ReplacementPolicy; 4] {
    [
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
        ReplacementPolicy::TreePlru,
    ]
}

proptest! {
    /// Whatever the policy does, the array must behave like a bounded map:
    /// present blocks return their metadata, sets never exceed their
    /// associativity, and evictions only ever remove blocks that were
    /// present.
    #[test]
    fn array_is_a_bounded_map(
        ops in proptest::collection::vec(op_strategy(64), 1..300),
        policy_idx in 0usize..4,
    ) {
        let geo = CacheGeometry::new(256, 16, 2).unwrap(); // 8 sets x 2 ways
        let policy = policies()[policy_idx];
        let mut cache: CacheArray<u32> = CacheArray::new(geo, policy, 42);
        // Reference model: block -> meta for blocks we believe cached.
        let mut model: HashMap<u64, u32> = HashMap::new();

        for op in &ops {
            match op {
                Op::Lookup(b) => {
                    let block = BlockId::new(*b);
                    let got = cache.lookup(block).map(|l| l.meta);
                    match model.get(b) {
                        Some(m) => prop_assert_eq!(got, Some(*m), "present block lost"),
                        None => prop_assert_eq!(got, None, "absent block found"),
                    }
                }
                Op::Fill(b, m) => {
                    let block = BlockId::new(*b);
                    if model.contains_key(b) {
                        // Fill of a present block is a caller bug; emulate
                        // the caller updating in place instead.
                        cache.peek_mut(block).unwrap().meta = *m;
                        model.insert(*b, *m);
                    } else {
                        let out = cache.fill(block, *m, |_| true);
                        if let Some(evicted) = out.evicted {
                            let removed = model.remove(&evicted.block.raw());
                            prop_assert_eq!(
                                removed,
                                Some(evicted.meta),
                                "evicted line was not in the model"
                            );
                            // Victim must come from the same set.
                            prop_assert_eq!(
                                geo.set_of(evicted.block),
                                geo.set_of(block),
                                "victim from a different set"
                            );
                        }
                        model.insert(*b, *m);
                    }
                }
                Op::Invalidate(b) => {
                    let got = cache.invalidate(BlockId::new(*b)).map(|l| l.meta);
                    prop_assert_eq!(got, model.remove(b), "invalidate mismatch");
                }
            }
            // Global occupancy agrees with the model.
            prop_assert_eq!(cache.occupancy(), model.len());
            // No set exceeds its associativity.
            let mut per_set: HashMap<vrcache_mem::SetIndex, u32> = HashMap::new();
            for line in cache.iter() {
                *per_set.entry(geo.set_of(line.block)).or_insert(0) += 1;
            }
            for (set, n) in per_set {
                prop_assert!(n <= geo.assoc(), "set {set} holds {n} lines");
            }
        }
    }

    /// LRU never evicts the block that was touched most recently.
    #[test]
    fn lru_spares_the_most_recent(
        touches in proptest::collection::vec(0u64..8, 1..60),
    ) {
        // Fully associative 4-way cache over 8 possible blocks.
        let geo = CacheGeometry::new(64, 16, 4).unwrap();
        let mut cache: CacheArray<()> = CacheArray::new(geo, ReplacementPolicy::Lru, 1);
        let mut last_touched = None;
        for b in &touches {
            let block = BlockId::new(*b);
            if cache.lookup(block).is_none() {
                let out = cache.fill(block, (), |_| true);
                if let (Some(evicted), Some(last)) = (out.evicted, last_touched) {
                    prop_assert_ne!(
                        evicted.block,
                        BlockId::new(last),
                        "evicted the most recently touched block"
                    );
                }
            }
            last_touched = Some(*b);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The flat array and a naive reference cache agree on every hit,
    /// victim, way and fallback, under every policy and several shapes.
    #[test]
    fn flat_array_matches_the_naive_reference(
        ops in proptest::collection::vec(diff_op_strategy(48), 1..400),
        policy_idx in 0usize..4,
        shape_idx in 0usize..SHAPES.len(),
        seed in any::<u64>(),
    ) {
        let (size, ways) = SHAPES[shape_idx];
        let geo = CacheGeometry::new(size, 16, ways).unwrap();
        let policy = policies()[policy_idx];
        let mut cache: CacheArray<u8> = CacheArray::new(geo, policy, seed);
        let mut reference = RefCache::new(policy, geo.sets(), ways, seed);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                DiffOp::Lookup(b) => prop_assert_eq!(
                    cache.lookup(BlockId::new(b)).map(|l| l.meta),
                    reference.lookup(b),
                    "op {}: lookup {}", i, b
                ),
                DiffOp::LookupIf(b, accept) => prop_assert_eq!(
                    cache
                        .lookup_if(BlockId::new(b), |l| accept >> l.meta & 1 == 1)
                        .map(|l| l.meta),
                    reference.lookup_if(b, accept),
                    "op {}: lookup_if {}", i, b
                ),
                DiffOp::Peek(b) => prop_assert_eq!(
                    cache.peek(BlockId::new(b)).map(|l| l.meta),
                    reference.peek(b),
                    "op {}: peek {}", i, b
                ),
                DiffOp::Fill(b, meta, prefer) => {
                    if reference.peek(b).is_some() {
                        // Filling a present block is a caller bug the
                        // array panics on; skip it.
                        continue;
                    }
                    let out = cache.fill(BlockId::new(b), meta, |l| prefer >> l.meta & 1 == 1);
                    let got = (
                        out.way as usize,
                        out.evicted.map(|l| (l.block.raw(), l.meta)),
                        out.fell_back,
                    );
                    prop_assert_eq!(got, reference.fill(b, meta, prefer), "op {}: fill {}", i, b);
                }
                DiffOp::Invalidate(b) => prop_assert_eq!(
                    cache.invalidate(BlockId::new(b)).map(|l| l.meta),
                    reference.invalidate(b),
                    "op {}: invalidate {}", i, b
                ),
            }
            prop_assert_eq!(cache.occupancy(), reference.occupancy(), "op {}", i);
        }
    }
}

/// `(size in bytes, ways)` of the differential test's arrays, 16-byte
/// blocks: direct-mapped, set-associative and fully associative.
const SHAPES: [(u64, u32); 5] = [(64, 1), (256, 2), (512, 4), (128, 8), (1024, 16)];

#[derive(Debug, Clone)]
enum DiffOp {
    Lookup(u64),
    /// Block, and the mask of metadata values the lookup accepts.
    LookupIf(u64, u8),
    Peek(u64),
    /// Block, metadata in `0..8`, and the fill's prefer mask: a line is a
    /// preferred victim when bit `meta` of the mask is set.
    Fill(u64, u8, u8),
    Invalidate(u64),
}

fn diff_op_strategy(blocks: u64) -> impl Strategy<Value = DiffOp> {
    prop_oneof![
        (0..blocks, 0u8..8, any::<u8>()).prop_map(|(b, m, p)| DiffOp::Fill(b, m, p)),
        (0..blocks).prop_map(DiffOp::Lookup),
        (0..blocks, any::<u8>()).prop_map(|(b, a)| DiffOp::LookupIf(b, a)),
        (0..blocks).prop_map(DiffOp::Peek),
        (0..blocks).prop_map(DiffOp::Invalidate),
    ]
}

/// One reference line: block, metadata and the policy's timestamp.
#[derive(Debug, Clone, Copy)]
struct RefLine {
    block: u64,
    meta: u8,
    stamp: u64,
}

/// The naive reference: a vector of sets, each a vector of ways found
/// by linear tag search, with a timestamp per line; tree-PLRU is
/// modelled by interval halving over a per-set flag per tree node.
struct RefCache {
    policy: ReplacementPolicy,
    sets: Vec<Vec<Option<RefLine>>>,
    /// Per set, per internal tree node: prefer the upper half.
    prefer_upper: Vec<Vec<bool>>,
    rng: XorShift64,
    clock: u64,
}

impl RefCache {
    fn new(policy: ReplacementPolicy, sets: u64, ways: u32, seed: u64) -> Self {
        RefCache {
            policy,
            sets: vec![vec![None; ways as usize]; sets as usize],
            prefer_upper: vec![vec![false; ways as usize]; sets as usize],
            rng: XorShift64::new(seed),
            clock: 0,
        }
    }

    fn find(&self, block: u64) -> (usize, Option<usize>) {
        let set = (block % self.sets.len() as u64) as usize;
        let way = self.sets[set]
            .iter()
            .position(|l| l.is_some_and(|l| l.block == block));
        (set, way)
    }

    fn touch(&mut self, set: usize, way: usize) {
        self.clock += 1;
        let ways = self.sets[set].len();
        let (mut lo, mut hi, mut node) = (0, ways, 0);
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let upper = way >= mid;
            // Point the victim search away from the touched half.
            self.prefer_upper[set][node] = !upper;
            if upper {
                (lo, node) = (mid, 2 * node + 2);
            } else {
                (hi, node) = (mid, 2 * node + 1);
            }
        }
    }

    fn lookup(&mut self, block: u64) -> Option<u8> {
        self.lookup_if(block, u8::MAX)
    }

    /// A hit only if bit `meta` of `accept` is set; a rejected line is
    /// not refreshed.
    fn lookup_if(&mut self, block: u64, accept: u8) -> Option<u8> {
        let (set, way) = self.find(block);
        let way = way?;
        if accept >> self.sets[set][way].unwrap().meta & 1 == 0 {
            return None;
        }
        match self.policy {
            ReplacementPolicy::Lru => {
                self.clock += 1;
                self.sets[set][way].as_mut().unwrap().stamp = self.clock;
            }
            ReplacementPolicy::TreePlru => self.touch(set, way),
            _ => self.clock += 1,
        }
        Some(self.sets[set][way].unwrap().meta)
    }

    fn peek(&self, block: u64) -> Option<u8> {
        let (set, way) = self.find(block);
        Some(self.sets[set][way?].unwrap().meta)
    }

    fn invalidate(&mut self, block: u64) -> Option<u8> {
        let (set, way) = self.find(block);
        Some(self.sets[set][way?].take().unwrap().meta)
    }

    fn occupancy(&self) -> usize {
        self.sets.iter().flatten().flatten().count()
    }

    /// The policy's victim of `set` among the ways `candidate` admits.
    fn victim(&self, set: usize, candidate: impl Fn(usize) -> bool + Copy, draw: u64) -> usize {
        let lines = &self.sets[set];
        let ways = || (0..lines.len()).filter(|w| candidate(*w));
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                ways().min_by_key(|w| lines[*w].unwrap().stamp).unwrap()
            }
            ReplacementPolicy::Random => {
                ways().nth((draw % ways().count() as u64) as usize).unwrap()
            }
            _ => {
                let has = |a: usize, b: usize| (a..b).any(candidate);
                let (mut lo, mut hi, mut node) = (0, lines.len(), 0);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let upper = if self.prefer_upper[set][node] {
                        has(mid, hi)
                    } else {
                        !has(lo, mid)
                    };
                    if upper {
                        (lo, node) = (mid, 2 * node + 2);
                    } else {
                        (hi, node) = (mid, 2 * node + 1);
                    }
                }
                lo
            }
        }
    }

    /// Fills `block`: `(way, evicted (block, meta), fell_back)`.
    fn fill(&mut self, block: u64, meta: u8, prefer: u8) -> (usize, Option<(u64, u8)>, bool) {
        let (set, _) = self.find(block);
        let lines = &self.sets[set];
        let (way, fell_back) = match lines.iter().position(Option::is_none) {
            Some(way) => (way, false),
            None => {
                let preferred = |w: usize| prefer >> lines[w].unwrap().meta & 1 == 1;
                let draw = self.rng.next_u64();
                if (0..lines.len()).any(preferred) {
                    (self.victim(set, preferred, draw), false)
                } else {
                    (self.victim(set, |_| true, draw), true)
                }
            }
        };
        self.clock += 1;
        let evicted = self.sets[set][way].replace(RefLine {
            block,
            meta,
            stamp: self.clock,
        });
        if self.policy == ReplacementPolicy::TreePlru {
            self.touch(set, way);
        }
        (way, evicted.map(|l| (l.block, l.meta)), fell_back)
    }
}
