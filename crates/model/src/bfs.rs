//! Exhaustive breadth-first exploration of a scope's interleavings.
//!
//! Starting from the cold initial state, every alphabet event is applied
//! to every reachable state up to the scope's depth bound. Duplicate
//! states are folded through the canonical encoding (with version
//! renaming), so the exploration terminates even though the oracle's
//! version counter is unbounded. Only the frontier is kept in memory:
//! a state's `World` lives in the queue until it is expanded, a state
//! at the depth bound is counted but never stored, and the seen-set
//! holds the exact canonical keys. Every reached state passes the full
//! property battery ([`World::check`]), checked once, when its key is
//! first seen: the check reads only what the key encodes, so a duplicate
//! shares the verdict of the state it repeats. The first violation
//! aborts the search, is minimized by greedy event deletion, and is
//! packaged as a replayable counterexample — including the source of a
//! standalone `#[test]` to pin the regression.
//!
//! A transition that reaches a seen state allocates nothing, with two
//! exceptions: a child that could not be drawn from the pool of recycled
//! worlds is a fresh clone (they number about the new states), and a
//! fill of a line with several subentries boxes them (`vr-sub-2cpu`).
//! Each child is written over a recycled world with `clone_from`, the
//! key is built in one reused [`Encoder`], the seen-set appends keys to
//! one arena, and the hierarchies' step carries its payloads inline.
//! Over the battery that is 0.66 allocations per transition, of which
//! 0.06 fall on a duplicate drawn from the pool.

use std::collections::VecDeque;

use vrcache::goodman::GoodmanHierarchy;
use vrcache::vr::VrHierarchy;

use crate::coverage::CoverageSet;
use crate::scope::{ModelEvent, Scope, ScopeKind};
use crate::world::{Encoder, ModelHierarchy, Universe, Violation, World};

/// The result of exhaustively exploring one scope.
#[derive(Debug, Clone)]
pub struct ScopeReport {
    /// The scope explored.
    pub name: &'static str,
    /// Distinct canonical states reached (including the initial state).
    pub states: u64,
    /// Transitions attempted (state × event applications).
    pub transitions: u64,
    /// Protocol transitions exercised along the way.
    pub coverage: CoverageSet,
    /// The minimized violation, if the scope is not clean.
    pub counterexample: Option<Counterexample>,
}

impl ScopeReport {
    /// The one-line deterministic summary the CLI prints.
    pub fn summary(&self) -> String {
        format!(
            "model: scope {} — states explored: {}, transitions: {}, coverage rows: {}",
            self.name,
            self.states,
            self.transitions,
            self.coverage.len()
        )
    }
}

/// A minimized, replayable property violation.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// The minimized event script (replaying it from the initial state
    /// reproduces the violation).
    pub events: Vec<ModelEvent>,
    /// Rendered description of the violated property.
    pub violation: String,
    /// Source of a standalone `#[test]` that replays the script — paste
    /// into `tests/model_counterexamples.rs` to pin the regression.
    pub test_source: String,
}

/// Explores `scope` exhaustively, dispatching on its hierarchy kind.
pub fn run_scope(scope: &Scope) -> ScopeReport {
    match scope.kind {
        ScopeKind::Vr => run::<VrHierarchy>(scope),
        ScopeKind::Goodman => run::<GoodmanHierarchy>(scope),
    }
}

/// Replays `events` on a fresh world of `scope`, checking after every
/// event.
///
/// # Errors
///
/// Returns the rendered violation (prefixed with the index and display of
/// the offending event) if the replay trips any property.
pub fn replay(scope: &Scope, events: &[ModelEvent]) -> Result<(), String> {
    let outcome = match scope.kind {
        ScopeKind::Vr => replay_typed::<VrHierarchy>(scope, events),
        ScopeKind::Goodman => replay_typed::<GoodmanHierarchy>(scope, events),
    };
    outcome.map_err(|(i, v)| match events.get(i) {
        Some(ev) => format!("event {i} ({ev}): {v}"),
        None => format!("initial state: {v}"),
    })
}

fn replay_typed<H: ModelHierarchy>(
    scope: &Scope,
    events: &[ModelEvent],
) -> Result<(), (usize, Violation)> {
    let universe = Universe::of(scope);
    let mut coverage = CoverageSet::default();
    let mut world = World::<H>::new(scope);
    world.check_in(&universe).map_err(|v| (usize::MAX, v))?;
    for (i, &event) in events.iter().enumerate() {
        world
            .apply(scope, event, &mut coverage)
            .and_then(|()| world.check_in(&universe))
            .map_err(|v| (i, v))?;
    }
    Ok(())
}

fn run<H: ModelHierarchy>(scope: &Scope) -> ScopeReport {
    let alphabet = scope.events();
    let universe = Universe::of(scope);
    let mut coverage = CoverageSet::default();
    let mut transitions = 0u64;

    let root = World::<H>::new(scope);
    if let Err(violation) = root.check_in(&universe) {
        return ScopeReport {
            name: scope.name,
            states: 1,
            transitions,
            coverage,
            counterexample: Some(package::<H>(scope, Vec::new(), violation)),
        };
    }

    // Every reached state gets a `parents` entry (its index is its
    // position), so a violation's path can be rebuilt. Only the frontier
    // holds worlds: a state is recycled once expanded, and a state at the
    // depth bound is never stored, since it will not be expanded.
    let mut parents: Vec<Option<(usize, ModelEvent)>> = vec![None];
    let mut enc = Encoder::new();
    root.canon_key_into(&universe, &mut enc);
    let mut seen = SeenSet::new();
    seen.insert(enc.words());
    let mut frontier: VecDeque<(usize, u32, World<H>)> = VecDeque::new();
    if 0 < scope.depth {
        frontier.push_back((0, 0, root));
    }

    // Worlds no longer needed (duplicate or bound-depth children,
    // expanded parents), kept to be overwritten in place. One expansion
    // draws at most one per event, so that many suffice.
    let mut pool: Vec<World<H>> = Vec::with_capacity(alphabet.len());
    let recycle = |pool: &mut Vec<World<H>>, world: World<H>| {
        if pool.len() < alphabet.len() {
            pool.push(world);
        }
    };
    while let Some((index, depth, parent)) = frontier.pop_front() {
        for &event in &alphabet {
            let mut world = match pool.pop() {
                Some(mut world) => {
                    world.clone_from(&parent);
                    world
                }
                None => parent.clone(),
            };
            transitions += 1;
            // A state is checked once, when first reached: the check
            // reads only what the key encodes, so a duplicate shares the
            // verdict of the state it repeats, which passed.
            let outcome = world.apply(scope, event, &mut coverage).and_then(|()| {
                world.canon_key_into(&universe, &mut enc);
                if seen.insert(enc.words()) {
                    world.check_in(&universe).map(|()| true)
                } else {
                    Ok(false)
                }
            });
            let new = match outcome {
                Ok(new) => new,
                Err(violation) => {
                    let mut events = path_to(&parents, index);
                    events.push(event);
                    return ScopeReport {
                        name: scope.name,
                        states: parents.len() as u64,
                        transitions,
                        coverage,
                        counterexample: Some(package::<H>(scope, events, violation)),
                    };
                }
            };
            if !new {
                recycle(&mut pool, world);
                continue;
            }
            parents.push(Some((index, event)));
            if depth + 1 < scope.depth {
                frontier.push_back((parents.len() - 1, depth + 1, world));
            } else {
                recycle(&mut pool, world);
            }
        }
        recycle(&mut pool, parent);
    }

    ScopeReport {
        name: scope.name,
        states: parents.len() as u64,
        transitions,
        coverage,
        counterexample: None,
    }
}

/// The exact set of canonical keys seen so far.
///
/// Keys are stored back to back in one [`Arena`], each behind a two-word
/// header: its length, and the offset of the previous key with the same
/// fingerprint. An open-addressed table of `(fingerprint, offset of the
/// newest key with that fingerprint)` indexes them, probed linearly from
/// the fingerprint's low bits and doubled whenever it is half full, so a
/// lookup costs O(1) expected probes. A lookup compares whole keys only
/// when fingerprints match, so a fingerprint collision costs a comparison
/// and never loses a state: hash compaction with an exact fallback (Stern
/// & Dill, "Improved Probabilistic Verification by Hash Compaction",
/// CHARME 1995). Nothing in it depends on the host: the table is a plain
/// `Vec` and the fingerprint a fixed function of the key's words.
struct SeenSet {
    arena: Arena,
    /// `(fingerprint, newest offset)` slots; a free slot's offset is
    /// [`NO_KEY`]. The length is a power of two.
    table: Vec<(u64, u64)>,
    /// Distinct fingerprints held.
    fingerprints: usize,
    fingerprint: fn(&[u64]) -> u64,
}

/// The header word that ends a fingerprint's chain, and the offset of a
/// free table slot.
const NO_KEY: u64 = u64::MAX;

/// Table slots before the first growth.
const INITIAL_SLOTS: usize = 1 << 10;

impl SeenSet {
    fn new() -> Self {
        SeenSet::with_fingerprint(fingerprint)
    }

    /// A set that fingerprints keys with `fingerprint` (tests force
    /// collisions through it).
    fn with_fingerprint(fingerprint: fn(&[u64]) -> u64) -> Self {
        SeenSet {
            arena: Arena::default(),
            table: vec![(0, NO_KEY); INITIAL_SLOTS],
            fingerprints: 0,
            fingerprint,
        }
    }

    /// Adds `key`, returning whether it was new.
    fn insert(&mut self, key: &[u64]) -> bool {
        let fp = (self.fingerprint)(key);
        let slot = self.slot_of(fp);
        let newest = self.table[slot].1;
        let mut next = newest;
        while next != NO_KEY {
            let start = next as usize;
            if self.arena.word(start) == key.len() as u64 && self.arena.holds_at(start + 2, key) {
                return false;
            }
            next = self.arena.word(start + 1);
        }
        let at = self.arena.len as u64;
        self.arena.push(&[key.len() as u64, newest]);
        self.arena.push(key);
        self.table[slot] = (fp, at);
        if newest == NO_KEY {
            self.fingerprints += 1;
            if 2 * self.fingerprints > self.table.len() {
                self.grow();
            }
        }
        true
    }

    /// The slot holding fingerprint `fp`, or the free slot where it goes.
    fn slot_of(&self, fp: u64) -> usize {
        let mask = self.table.len() - 1;
        let mut slot = fp as usize & mask;
        while self.table[slot].1 != NO_KEY && self.table[slot].0 != fp {
            slot = (slot + 1) & mask;
        }
        slot
    }

    /// Doubles the table, re-placing every fingerprint.
    fn grow(&mut self) {
        let slots = 2 * self.table.len();
        let old = std::mem::replace(&mut self.table, vec![(0, NO_KEY); slots]);
        for entry in old.into_iter().filter(|&(_, at)| at != NO_KEY) {
            let slot = self.slot_of(entry.0);
            self.table[slot] = entry;
        }
    }
}

/// A growable run of words kept in fixed-size chunks, continuing from
/// the end of one chunk into the next. It grows a chunk at a time, so it
/// never copies what it holds or reserves more than one chunk ahead, and
/// a chunk is small enough to be carved from memory the search has freed.
#[derive(Default)]
struct Arena {
    chunks: Vec<Vec<u64>>,
    len: usize,
}

/// Words per arena chunk (4 KiB).
const CHUNK_WORDS: usize = 1 << 9;

impl Arena {
    /// Appends `words`.
    fn push(&mut self, mut words: &[u64]) {
        while !words.is_empty() {
            if self.len == self.chunks.len() * CHUNK_WORDS {
                self.chunks.push(Vec::with_capacity(CHUNK_WORDS));
            }
            let last = self.chunks.len() - 1;
            let chunk = &mut self.chunks[last];
            let n = words.len().min(CHUNK_WORDS - chunk.len());
            chunk.extend_from_slice(&words[..n]);
            self.len += n;
            words = &words[n..];
        }
    }

    /// The word at offset `at`.
    fn word(&self, at: usize) -> u64 {
        self.chunks[at / CHUNK_WORDS][at % CHUNK_WORDS]
    }

    /// Whether the words from offset `at` on begin with `key`.
    fn holds_at(&self, mut at: usize, mut key: &[u64]) -> bool {
        while !key.is_empty() {
            let offset = at % CHUNK_WORDS;
            let n = key.len().min(CHUNK_WORDS - offset);
            if self.chunks[at / CHUNK_WORDS][offset..offset + n] != key[..n] {
                return false;
            }
            at += n;
            key = &key[n..];
        }
        true
    }
}

/// A key's fingerprint. Four independent multiply-rotate lanes take
/// every fourth word, so consecutive words do not wait on one another's
/// multiply; the lanes and the length are then folded and finished with
/// a full avalanche, so the low bits that pick a table slot depend on
/// every word.
fn fingerprint(key: &[u64]) -> u64 {
    const K: [u64; 4] = [
        0x9e37_79b9_7f4a_7c15,
        0xc2b2_ae3d_27d4_eb4f,
        0x1656_67b1_9e37_79f9,
        0x85eb_ca77_c2b2_ae63,
    ];
    let mut lanes = K;
    let mut words = key.chunks_exact(4);
    for chunk in &mut words {
        for i in 0..4 {
            lanes[i] = (lanes[i].rotate_left(5) ^ chunk[i]).wrapping_mul(K[i]);
        }
    }
    for (i, &w) in words.remainder().iter().enumerate() {
        lanes[i] = (lanes[i].rotate_left(5) ^ w).wrapping_mul(K[i]);
    }
    let mut h = (key.len() as u64).wrapping_mul(K[0]);
    for lane in lanes {
        h = (h.rotate_left(23) ^ lane).wrapping_mul(K[1]);
    }
    // The 64-bit finalizer of MurmurHash3.
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// Reconstructs the event path from the initial state to `index`.
fn path_to(parents: &[Option<(usize, ModelEvent)>], mut index: usize) -> Vec<ModelEvent> {
    let mut events = Vec::new();
    while let Some((parent, event)) = parents[index] {
        events.push(event);
        index = parent;
    }
    events.reverse();
    events
}

/// Minimizes a violating script by greedy deletion and packages it.
fn package<H: ModelHierarchy>(
    scope: &Scope,
    events: Vec<ModelEvent>,
    violation: Violation,
) -> Counterexample {
    let (events, violation) = minimize::<H>(scope, events, violation);
    let violation = violation.to_string();
    let test_source = emit_test(scope, &events, &violation);
    Counterexample {
        events,
        violation,
        test_source,
    }
}

/// Greedy delta-debugging: repeatedly drop any single event whose removal
/// still violates, until no single deletion does. The surviving script is
/// 1-minimal — every remaining event is necessary.
fn minimize<H: ModelHierarchy>(
    scope: &Scope,
    mut events: Vec<ModelEvent>,
    mut violation: Violation,
) -> (Vec<ModelEvent>, Violation) {
    loop {
        let mut reduced = false;
        let mut i = 0;
        while i < events.len() {
            let mut candidate = events.clone();
            candidate.remove(i);
            if let Err((_, v)) = replay_typed::<H>(scope, &candidate) {
                events = candidate;
                violation = v;
                reduced = true;
            } else {
                i += 1;
            }
        }
        if !reduced {
            return (events, violation);
        }
    }
}

/// Renders a standalone `#[test]` that replays `events` and asserts the
/// violation still reproduces.
fn emit_test(scope: &Scope, events: &[ModelEvent], violation: &str) -> String {
    let mut body = String::new();
    for event in events {
        body.push_str("        ");
        body.push_str(&event.as_source());
        body.push_str(",\n");
    }
    let fn_name = scope.name.replace('-', "_");
    format!(
        "/// Counterexample found by the model checker on scope `{name}`:\n\
         /// {violation}\n\
         #[test]\n\
         fn replays_{fn_name}_counterexample() {{\n\
         \x20   use vrcache_model::{{replay, ModelEvent, Scope}};\n\
         \x20   let scope = Scope::by_name(\"{name}\").unwrap();\n\
         \x20   let events = [\n{body}\x20   ];\n\
         \x20   let err = replay(&scope, &events).unwrap_err();\n\
         \x20   assert!(!err.is_empty(), \"counterexample no longer reproduces\");\n\
         }}\n",
        name = scope.name,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use vrcache::invariant::InvariantExpect;

    #[test]
    fn smoke_scope_is_clean_and_deterministic() {
        let scope = Scope::smoke();
        let a = run_scope(&scope);
        assert!(a.counterexample.is_none(), "smoke scope must be clean");
        assert!(a.states > 1);
        let b = run_scope(&scope);
        assert_eq!(a.states, b.states);
        assert_eq!(a.transitions, b.transitions);
        assert_eq!(a.coverage, b.coverage);
        assert_eq!(a.summary(), b.summary());
    }

    #[test]
    fn seen_set_is_exact_under_fingerprint_collisions() {
        // Every key collides: only the exact comparison can tell them apart.
        let mut seen = SeenSet::with_fingerprint(|_| 7);
        let (a, b): (&[u64], &[u64]) = (&[1, 2, 3], &[1, 2, 4]);
        assert!(seen.insert(a));
        assert!(seen.insert(b));
        assert!(!seen.insert(a));
        assert!(!seen.insert(b));
        // A key that is a prefix of another, or extends it, is distinct.
        assert!(seen.insert(&[1, 2]));
        assert!(seen.insert(&[1, 2, 3, 0]));
        assert!(seen.insert(&[]));
        for key in [&[1, 2][..], &[1, 2, 3, 0], &[], a, b] {
            assert!(!seen.insert(key), "{key:?} was already inserted");
        }
    }

    #[test]
    fn seen_set_keys_run_across_arena_chunks() {
        // Odd-length keys land at every offset of a chunk, so many run on
        // into the next one; one key is longer than a whole chunk.
        let mut seen = SeenSet::with_fingerprint(|key| key.len() as u64 % 3);
        let keys: Vec<Vec<u64>> = (0..200u64)
            .map(|i| (0..7 + i % 5).map(|w| i * 31 + w).collect())
            .chain([(0..3 * CHUNK_WORDS as u64 / 2).collect()])
            .collect();
        for key in &keys {
            assert!(seen.insert(key));
        }
        assert!(seen.arena.chunks.len() > 3);
        for key in &keys {
            assert!(!seen.insert(key));
            let mut near = key.clone();
            near[key.len() - 1] ^= 1 << 40;
            assert!(
                seen.insert(&near),
                "a key differing in its last word is new"
            );
        }
    }

    #[test]
    fn seen_set_fingerprint_separates_keys() {
        let mut seen = SeenSet::new();
        assert!(seen.insert(&[5, 6]));
        assert!(seen.insert(&[6, 5]));
        assert!(seen.insert(&[5, 6, 0]));
        assert!(!seen.insert(&[5, 6]));
        assert_eq!(seen.fingerprints, 3, "three keys, three fingerprints");
    }

    #[test]
    fn seen_set_stays_exact_across_table_growths_and_chunks() {
        // 1,500 fingerprints, four keys each, all probing from one slot:
        // the table doubles twice, chains and probe runs stay long, and
        // the keys (9 to 13 words) run across arena chunk boundaries.
        let mut seen = SeenSet::with_fingerprint(|key| (key[0] % 1500) << 40);
        let keys: Vec<Vec<u64>> = (0..6000u64)
            .map(|i| (0..9 + i % 5).map(|w| i + (w << 20)).collect())
            .collect();
        for key in &keys {
            assert!(seen.insert(key), "{key:?} is new");
        }
        assert_eq!(seen.fingerprints, 1500);
        assert!(seen.table.len() >= 4 * INITIAL_SLOTS, "grew twice");
        assert!(seen.arena.chunks.len() > 100);
        for key in &keys {
            assert!(!seen.insert(key), "{key:?} was already inserted");
        }
        // Same fingerprint, same first word, one word changed: new.
        for key in keys.iter().step_by(7) {
            let mut near = key.clone();
            near[key.len() / 2] ^= 1;
            assert!(seen.insert(&near));
            assert!(!seen.insert(&near));
        }
    }

    #[test]
    fn seen_set_keys_of_different_lengths_never_match() {
        // One fingerprint for all; keys of zeros, and keys spelling out
        // another key's header, differ only in length or in position.
        let mut seen = SeenSet::with_fingerprint(|_| 0);
        let keys: Vec<Vec<u64>> = (0..3 * CHUNK_WORDS / 2)
            .step_by(37)
            .flat_map(|n| [vec![0; n], vec![n as u64, NO_KEY]])
            .collect();
        for key in &keys {
            assert!(seen.insert(key), "{key:?} is new");
        }
        for key in &keys {
            assert!(!seen.insert(key), "{key:?} was already inserted");
        }
    }

    #[test]
    fn replay_of_empty_script_is_clean() {
        assert!(replay(&Scope::smoke(), &[]).is_ok());
    }

    #[test]
    fn path_reconstruction_and_test_emission() {
        let parents = vec![
            None,
            Some((0, ModelEvent::Write { cpu: 0, mapping: 0 })),
            Some((1, ModelEvent::Read { cpu: 0, mapping: 1 })),
        ];
        assert_eq!(
            path_to(&parents, 2),
            vec![
                ModelEvent::Write { cpu: 0, mapping: 0 },
                ModelEvent::Read { cpu: 0, mapping: 1 },
            ]
        );
        let src = emit_test(
            &Scope::smoke(),
            &path_to(&parents, 2),
            "value: cpu0 holds v0 of granule 0 but newest is v1",
        );
        assert!(src.contains("#[test]"));
        assert!(src.contains("fn replays_smoke_counterexample()"));
        assert!(src.contains("ModelEvent::Write { cpu: 0, mapping: 0 }"));
        assert!(src.contains("Scope::by_name(\"smoke\")"));
    }

    #[test]
    fn goodman_scope_is_clean() {
        let scope = Scope::by_name("goodman-2cpu").invariant_expect("scope exists");
        let report = run_scope(&scope);
        assert!(
            report.counterexample.is_none(),
            "goodman scope must be clean: {:?}",
            report.counterexample
        );
    }

    /// Each scope's `(states, transitions)`, as `--scope all` prints
    /// them: a search change that alters the explored space fails here.
    const SHAPES: [(&str, u64, u64); 10] = [
        ("smoke", 226, 2020),
        ("goodman-2cpu", 1073, 6851),
        ("vr-3cpu", 1370, 5136),
        ("vr-asid-2cpu", 1462, 7990),
        ("vr-eager-2cpu", 1228, 7344),
        ("vr-inval-2cpu", 1542, 8194),
        ("vr-move-2cpu", 1542, 8194),
        ("vr-sub-2cpu", 1542, 8194),
        ("vr-update-2cpu", 2448, 11220),
        ("vr-wt-2cpu", 1614, 8143),
    ];

    #[test]
    fn coverage_file_matches_what_the_scopes_exercise() {
        let mut union = CoverageSet::default();
        let mut shapes = Vec::new();
        for scope in Scope::all() {
            let report = run_scope(&scope);
            if let Some(ce) = report.counterexample {
                unreachable!("scope violated: {} — {}", ce.violation, ce.test_source);
            }
            union.merge(&report.coverage);
            shapes.push((report.name, report.states, report.transitions));
        }
        assert_eq!(shapes, SHAPES, "the explored space of some scope moved");
        let pinned = CoverageSet::parse(include_str!("../coverage.txt"));
        assert_eq!(
            pinned, union,
            "coverage.txt is stale; regenerate with: cargo run --release -p \
             vrcache-model -- --scope all --write-coverage crates/model/coverage.txt"
        );
    }
}
