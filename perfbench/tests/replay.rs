//! The benchmark's own checks on a tiny pops trace: its digests are
//! stable, and the traced replay simulates exactly what the untraced one
//! does while producing well-formed span trees.

use vrcache_perfbench::replay::{replay_traced, run_untraced, vrsim_default_config, Span, ORGS};
use vrcache_trace::codec;
use vrcache_trace::presets::TracePreset;
use vrcache_trace::trace::Trace;

fn tiny_pops() -> Trace {
    TracePreset::Pops.generate_scaled(0.002)
}

#[test]
fn digest_is_stable_across_repetitions_and_the_trace_file_round_trip() {
    let trace = tiny_pops();
    let decoded = codec::decode(&codec::encode(&trace)).expect("round trip");
    let cfg = vrsim_default_config();
    for org in ORGS {
        let (first, _) = run_untraced(org, &trace, &cfg).expect("replay");
        let (again, _) = run_untraced(org, &trace, &cfg).expect("replay");
        let (from_file, _) = run_untraced(org, &decoded, &cfg).expect("replay");
        assert_eq!(first.digest(), again.digest(), "{}", org.label);
        assert_eq!(first.digest(), from_file.digest(), "{}", org.label);
        assert_eq!(first.refs, trace.summary().total_refs);
    }
}

#[test]
fn digests_tell_organizations_apart() {
    let trace = tiny_pops();
    let cfg = vrsim_default_config();
    let digests: Vec<String> = ORGS
        .iter()
        .map(|&org| run_untraced(org, &trace, &cfg).expect("replay").0.digest())
        .collect();
    for (i, d) in digests.iter().enumerate() {
        assert!(
            !digests[..i].contains(d),
            "{} repeats an earlier digest",
            ORGS[i].label
        );
    }
}

#[test]
fn traced_and_untraced_replays_agree() {
    let trace = tiny_pops();
    let cfg = vrsim_default_config();
    for org in ORGS {
        let (untraced, _) = run_untraced(org, &trace, &cfg).expect("untraced replay");
        let (traced, times) =
            replay_traced(org, &trace, &cfg, 0, &mut Vec::new()).expect("traced replay");
        assert_eq!(traced, untraced, "{}", org.label);
        assert_eq!(times.issues, traced.bus.total(), "{}", org.label);
        assert_eq!(times.snoops, times.issues * (u64::from(trace.cpus()) - 1));
        assert!(times.access > times.issue && times.issue >= times.snoop);
        assert!(times.loop_wall > times.access + times.switch);
    }
}

#[test]
fn span_trees_nest_issues_under_the_access_and_snoops_under_issues() {
    let trace = tiny_pops();
    let cfg = vrsim_default_config();
    let mut spans: Vec<Span> = Vec::new();
    replay_traced(ORGS[0], &trace, &cfg, 1, &mut spans).expect("traced replay");
    let roots = spans.iter().filter(|s| s.parent.is_none()).count() as u64;
    assert_eq!(roots, trace.summary().total_refs, "one tree per reference");
    let mut trees_with_issues = 0;
    for tree in spans.split(|s| s.parent.is_none()).skip(1) {
        let mut snoops_of_issue = 0;
        for s in tree {
            assert!(s.start < s.end);
            match s.name {
                "sim.issue" => {
                    assert_eq!(s.parent, Some(0));
                    trees_with_issues += 1;
                    snoops_of_issue = 0;
                }
                "core.snoop" => {
                    snoops_of_issue += 1;
                    assert!(snoops_of_issue < usize::from(trace.cpus()));
                }
                other => panic!("unexpected span {other} below a root"),
            }
        }
    }
    assert!(
        trees_with_issues > 0,
        "some sampled reference went to the bus"
    );
}
