//! Property test: synonym resolution is observationally equivalent to the
//! flat sequentially-consistent memory oracle — under *both* resolution
//! strategies.
//!
//! The same randomized, synonym-heavy event script is replayed on two
//! scopes that differ only in which synonym path their geometry forces:
//! `vr-inval-2cpu` (V-cache ≤ page, synonyms collide in one set →
//! `sameset` re-tagging) and `vr-move-2cpu` (V-cache > page, synonyms
//! land in different sets → cross-set `move`). Every state must pass the
//! full property battery (oracle freshness, SWMR, value equivalence,
//! structural invariants), and the final oracle write histories of the
//! two runs must agree — the resolution strategy is invisible to the
//! memory model. Cases are seeded deterministically by the vendored
//! proptest shim; failures reproduce on every run.

use proptest::prelude::*;
use vrcache::hierarchy::SynonymKind;
use vrcache_model::coverage::CoverageSet;
use vrcache_model::{ModelEvent, Scope, World};

/// Replays `events` on `scope` from the initial state, checking after
/// every event; returns the sorted multiset of oracle versions written.
fn replay_collect_versions(scope: &Scope, events: &[ModelEvent]) -> Vec<u64> {
    let mut coverage = CoverageSet::default();
    let mut world = World::new(scope);
    world.check(scope).unwrap();
    for (i, &event) in events.iter().enumerate() {
        world
            .apply(scope, event, &mut coverage)
            .and_then(|()| world.check(scope))
            .unwrap_or_else(|v| panic!("{}: event {i} ({event}): {v}", scope.name));
    }
    let mut versions: Vec<u64> = world
        .oracle()
        .snapshot()
        .into_iter()
        .map(|(_, v)| v.raw())
        .collect();
    versions.sort_unstable();
    versions
}

fn decode(raw: &[(u8, u8, u8)]) -> Vec<ModelEvent> {
    raw.iter()
        .map(|&(kind, cpu, mapping)| {
            // Bias the alphabet toward the synonym pair m0/m1 (weights via
            // modulo): mapping 3 folds back onto m1 so half the refs
            // alternate virtual names for one physical page.
            let cpu = u16::from(cpu % 2);
            let mapping = match mapping % 4 {
                3 => 1,
                m => usize::from(m),
            };
            match kind % 6 {
                0 | 1 => ModelEvent::Read { cpu, mapping },
                2 | 3 => ModelEvent::Write { cpu, mapping },
                4 => ModelEvent::ContextSwitch { cpu },
                _ => ModelEvent::Shootdown { mapping },
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn sameset_and_move_resolution_match_the_oracle(
        raw in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u8>()),
            0..14,
        )
    ) {
        let events = decode(&raw);
        let sameset = Scope::by_name("vr-inval-2cpu").unwrap();
        let moving = Scope::by_name("vr-move-2cpu").unwrap();
        let a = replay_collect_versions(&sameset, &events);
        let b = replay_collect_versions(&moving, &events);
        // Same script, same write history: which synonym strategy the
        // geometry forces must be invisible to the memory model.
        prop_assert_eq!(a, b);
    }
}

/// The equivalence above is only meaningful if both paths actually fire:
/// pin a script that provably takes `sameset` on the small geometry and
/// `move` on the large one.
#[test]
fn both_synonym_paths_fire_on_their_geometry() {
    let mut coverage = CoverageSet::default();

    let sameset = Scope::by_name("vr-inval-2cpu").unwrap();
    let mut world = World::new(&sameset);
    world
        .apply(
            &sameset,
            ModelEvent::Write { cpu: 0, mapping: 0 },
            &mut coverage,
        )
        .unwrap();
    let out = world.access(&sameset, 0, 1, false, &mut coverage).unwrap();
    assert_eq!(out.synonym, Some(SynonymKind::SameSet));
    world.check(&sameset).unwrap();

    let moving = Scope::by_name("vr-move-2cpu").unwrap();
    let mut world = World::new(&moving);
    world
        .apply(
            &moving,
            ModelEvent::Write { cpu: 0, mapping: 0 },
            &mut coverage,
        )
        .unwrap();
    let out = world.access(&moving, 0, 1, false, &mut coverage).unwrap();
    assert_eq!(out.synonym, Some(SynonymKind::Move));
    world.check(&moving).unwrap();
}
