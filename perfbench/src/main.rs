//! `perfbench` — the in-process half of the benchmark. `run.py` runs it
//! once per workload, in a process of its own, and reads the JSON object
//! it prints on its last stdout line.
//!
//! ```text
//! perfbench <pops-file|shared-8cpu|model-battery> --seed N --seconds S
//!           --trace 0|1 [--scale F] [--file PATH] [--spans PATH]
//! ```
//!
//! * `pops-file` writes the pops trace to `--file` (the set-up). With
//!   `--trace 0` it then replays the file in-process once per
//!   organization and prints the stdout `vrsim run` must reproduce; the
//!   timed passes are `vrsim` children that `run.py` starts. With
//!   `--trace 1` it runs untraced and traced in-process passes.
//! * `shared-8cpu` generates its trace in memory and times untraced
//!   passes in fixed-size chunks, or with `--trace 1` untraced and traced
//!   passes.
//! * `model-battery` runs the model checker's full scope battery.
//!
//! Every pass is repeated until `--seconds` of measured time have passed.
//! Time is read only through `criterion::time_fn`.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Duration;

use criterion::{black_box, time_fn};
use vrcache::config::HierarchyConfig;
use vrcache_model::{run_scope_battery, Scope, ScopeOutcome};
use vrcache_perfbench::replay::{
    fnv1a_hex, replay_traced, replay_untraced, run_untraced, system_stats, vrsim_default_config,
    vrsim_run_text, LayerTimes, Org, SimStats, Span, ORGS,
};
use vrcache_sim::system::System;
use vrcache_trace::codec;
use vrcache_trace::presets::TracePreset;
use vrcache_trace::synth::{generate, WorkloadConfig};
use vrcache_trace::trace::Trace;

/// References per timed chunk on shared-8cpu: 3 M refs × 4 organizations
/// give 480 chunks a pass, so 24 samples lie beyond p95.
const CHUNK_REFS: usize = 25_000;

/// A traced pass keeps the span tree of every this-many-th event.
const SPAN_SAMPLE_EVERY: usize = 1 << 16;

/// Set-up repetitions whose median `run.py` reports as `setup_s`.
const SETUP_REPS_REPLAY: usize = 5;
const SETUP_REPS_MODEL: usize = 9;

/// The model battery's set-up (its scope list and event alphabets) takes
/// microseconds, so each set-up sample averages this many back-to-back
/// constructions.
const MODEL_SETUPS_PER_SAMPLE: u32 = 200;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    traced: bool,
    scale: f64,
    file: String,
    spans: String,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (workload, rest) = argv.split_first().ok_or("missing workload")?;
    let mut flags = BTreeMap::new();
    for pair in rest.chunks(2) {
        let [name, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        let name = name
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {name}"))?;
        flags.insert(name.to_string(), value.clone());
    }
    let get = |k: &str, default: &str| flags.get(k).cloned().unwrap_or_else(|| default.into());
    let num = |k: &str, default: &str| -> Result<f64, String> {
        get(k, default)
            .parse::<f64>()
            .map_err(|e| format!("--{k}: {e}"))
    };
    let args = Args {
        workload: workload.clone(),
        seed: get("seed", "0")
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: num("seconds", "10")?,
        traced: match get("trace", "0").as_str() {
            "0" => false,
            "1" => true,
            t => return Err(format!("--trace must be 0 or 1, got {t}")),
        },
        scale: num("scale", "1")?,
        file: get("file", ".bench_out/pops.vrt"),
        spans: get("spans", ".bench_out/spans.jsonl"),
    };
    if !(args.scale > 0.0 && args.scale <= 1.0) {
        return Err(format!("--scale must be in (0,1], got {}", args.scale));
    }
    Ok(args)
}

/// A JSON value, rendered by hand (no serializer is vendored).
enum J {
    Num(f64),
    Int(u64),
    Str(String),
    Arr(Vec<J>),
    Obj(Vec<(String, J)>),
}

impl J {
    fn render(&self, out: &mut String) {
        match self {
            J::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x:e}");
            }
            J::Num(_) => out.push_str("null"),
            J::Int(n) => {
                let _ = write!(out, "{n}");
            }
            J::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        c if u32::from(c) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", u32::from(c));
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            J::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.render(out);
                }
                out.push(']');
            }
            J::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    J::Str(k.clone()).render(out);
                    out.push(':');
                    v.render(out);
                }
                out.push('}');
            }
        }
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

fn nums(values: &[f64]) -> J {
    J::Arr(values.iter().map(|&x| J::Num(x)).collect())
}

/// What one workload run reports back to `run.py`.
#[derive(Default)]
struct Report {
    setup_s: Vec<f64>,
    generate_s: Vec<f64>,
    refs: u64,
    trace_bytes: u64,
    attempted: u64,
    errors: Vec<String>,
    pass_s: Vec<f64>,
    chunk_ms: Vec<Vec<f64>>,
    digests: Vec<(String, String)>,
    reference: Vec<(String, String)>,
    layers: Vec<Vec<(String, f64)>>,
    spans: usize,
    transitions: u64,
}

impl Report {
    /// Counts one operation; a failed one records why.
    fn op(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = result {
            self.errors.push(e);
        }
    }

    /// Records the digest `what` produced, failing the operation if an
    /// earlier repetition of `what` produced another.
    fn digest_op(&mut self, what: &str, digest: String) {
        let earlier = self
            .digests
            .iter()
            .find(|(w, _)| w == what)
            .map(|(_, d)| d.clone());
        let result = match earlier {
            Some(d) if d != digest => Err(format!("{what}: digest {digest} differs from {d}")),
            Some(_) => Ok(()),
            None => {
                self.digests.push((what.to_string(), digest));
                Ok(())
            }
        };
        self.op(result);
    }

    fn render(&self) -> String {
        let fields = vec![
            ("setup_s", nums(&self.setup_s)),
            ("generate_s", nums(&self.generate_s)),
            ("refs", J::Int(self.refs)),
            ("trace_bytes", J::Int(self.trace_bytes)),
            ("transitions", J::Int(self.transitions)),
            ("attempted", J::Int(self.attempted)),
            (
                "errors",
                J::Arr(self.errors.iter().map(|e| J::Str(e.clone())).collect()),
            ),
            ("pass_s", nums(&self.pass_s)),
            (
                "chunk_ms",
                J::Arr(self.chunk_ms.iter().map(|c| nums(c)).collect()),
            ),
            ("digests", str_obj(&self.digests)),
            ("reference", str_obj(&self.reference)),
            (
                "layers",
                J::Arr(
                    self.layers
                        .iter()
                        .map(|pass| {
                            J::Obj(pass.iter().map(|(k, v)| (k.clone(), J::Num(*v))).collect())
                        })
                        .collect(),
                ),
            ),
            ("spans", J::Int(self.spans as u64)),
        ];
        let mut out = String::new();
        J::Obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
        .render(&mut out);
        out
    }
}

fn str_obj(pairs: &[(String, String)]) -> J {
    J::Obj(
        pairs
            .iter()
            .map(|(k, v)| (k.clone(), J::Str(v.clone())))
            .collect(),
    )
}

/// Repeats `pass` until `seconds` of pass time have been measured (at
/// least once).
fn repeat_for(seconds: f64, mut pass: impl FnMut()) {
    let mut spent = Duration::ZERO;
    loop {
        let ((), took) = time_fn(&mut pass);
        spent += took;
        if secs(spent) >= seconds {
            break;
        }
    }
}

/// The pops preset at `scale`, with its seed replaced by `seed`.
fn pops_config(seed: u64, scale: f64) -> WorkloadConfig {
    WorkloadConfig {
        seed,
        ..TracePreset::Pops.config().scaled(scale)
    }
}

/// `WorkloadConfig::default()` made sharing- and synonym-heavy: 8 CPUs,
/// 3 M refs, 64 context switches, a third of data references writes, 30%
/// of them to 16 shared pages, 30% of shared ones through a synonym.
fn shared_config(seed: u64, scale: f64) -> WorkloadConfig {
    WorkloadConfig {
        name: "shared-8cpu".into(),
        cpus: 8,
        total_refs: 3_000_000,
        context_switches: 64,
        seed,
        write_frac: 0.35,
        p_shared: 0.30,
        shared_pages: 16,
        p_synonym_alias: 0.30,
        ..WorkloadConfig::default()
    }
    .scaled(scale)
}

fn access_count(trace: &Trace) -> u64 {
    trace.iter().filter(|e| e.access().is_some()).count() as u64
}

/// Builds one system per organization: the set-up's construction step.
fn build_systems(trace: &Trace, cfg: &HierarchyConfig) -> Vec<System> {
    ORGS.iter()
        .map(|org| System::new(org.kind, trace.cpus(), cfg))
        .collect()
}

/// Set-up of a replay workload, repeated: generate, then (pops-file)
/// encode and write the file, then construct every organization's
/// system. Returns the last trace.
fn setup_replay(
    args: &Args,
    report: &mut Report,
    config: &WorkloadConfig,
    write_file: bool,
) -> Result<Trace, String> {
    let cfg = vrsim_default_config();
    let mut trace = None;
    for _ in 0..SETUP_REPS_REPLAY {
        drop(trace.take());
        let (t, gen) = time_fn(|| generate(config));
        let mut total = gen;
        if write_file {
            let (written, took) = time_fn(|| {
                let bytes = codec::encode(&t);
                if let Some(dir) = std::path::Path::new(&args.file).parent() {
                    std::fs::create_dir_all(dir)?;
                }
                std::fs::write(&args.file, &bytes).map(|()| bytes.len())
            });
            let len = written.map_err(|e| format!("writing {}: {e}", args.file))?;
            report.trace_bytes = len as u64;
            total += took;
        }
        let (systems, took) = time_fn(|| build_systems(&t, &cfg));
        drop(systems);
        total += took;
        report.generate_s.push(secs(gen));
        report.setup_s.push(secs(total));
        trace = Some(t);
    }
    let trace = trace.expect("at least one set-up repetition");
    report.refs = access_count(&trace);
    Ok(trace)
}

/// Reads and decodes the trace file. Returns the trace with the host
/// time of the read and of `codec::decode`.
fn decode_file(path: &str) -> Result<(Trace, Duration, Duration), String> {
    let (bytes, read) = time_fn(|| std::fs::read(path));
    let bytes = bytes.map_err(|e| format!("reading {path}: {e}"))?;
    let (trace, decode) = time_fn(|| codec::decode(&bytes));
    let trace = trace.map_err(|e| format!("decoding {path}: {e}"))?;
    Ok((trace, read, decode))
}

/// pops-file, untraced: the in-process reference every `vrsim` child's
/// stdout must match, one operation per organization.
fn pops_reference(args: &Args, report: &mut Report) {
    let cfg = vrsim_default_config();
    for org in ORGS {
        let result = decode_file(&args.file).and_then(|(trace, _, _)| {
            let mut sys = System::new(org.kind, trace.cpus(), &cfg);
            replay_untraced(&mut sys, trace.events(), usize::MAX, &mut Vec::new())?;
            report.reference.push((
                org.vrsim_kind.to_string(),
                vrsim_run_text(&trace, &cfg, &sys),
            ));
            report
                .digests
                .push((org.label.to_string(), system_stats(&sys).digest()));
            Ok(())
        });
        report.op(result);
    }
}

/// shared-8cpu, untraced: every organization replays the in-memory trace
/// in chunks; a pass's time is the sum of its chunks.
fn shared_passes(args: &Args, report: &mut Report, trace: &Trace) {
    let cfg = vrsim_default_config();
    repeat_for(args.seconds, || {
        let mut chunk_ms = Vec::new();
        let mut pass = Duration::ZERO;
        for org in ORGS {
            let mut sys = System::new(org.kind, trace.cpus(), &cfg);
            match replay_untraced(&mut sys, trace.events(), CHUNK_REFS, &mut chunk_ms) {
                Ok(took) => {
                    pass += took;
                    report.digest_op(org.label, system_stats(&sys).digest());
                }
                Err(e) => report.op(Err(format!("{}: {e}", org.label))),
            }
        }
        report.pass_s.push(secs(pass));
        report.chunk_ms.push(chunk_ms);
    });
}

/// One traced pass's per-layer sums for one organization.
fn org_layers(org: Org, stats: &SimStats, times: &LayerTimes, out: &mut Vec<(String, f64)>) {
    let l = org.label;
    let l1_messages: u64 = stats.events.iter().map(|e| e.l1_coherence_messages()).sum();
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let mut put = |name: String, v: f64| out.push((name, v));
    put(format!("core.{l}.access_self_s"), secs(times.access_self()));
    put(format!("core.{l}.snoop_s"), secs(times.snoop));
    put(format!("core.{l}.switch_s"), secs(times.switch));
    put(
        format!("core.{l}.l1_snoop_share"),
        ratio(l1_messages, times.snoops),
    );
    put(
        format!("core.{l}.synonyms"),
        stats.events.iter().map(|e| e.synonyms()).sum::<u64>() as f64,
    );
    put(
        format!("core.{l}.inclusion_invalidations"),
        stats
            .events
            .iter()
            .map(|e| e.inclusion_invalidations)
            .sum::<u64>() as f64,
    );
    put(format!("cache.{l}.h1"), stats.h1());
    put(format!("cache.{l}.h2_local"), stats.h2_local());
    put(
        format!("cache.{l}.wb_stalls"),
        stats
            .write_buffers
            .iter()
            .map(|w| w.full_stalls)
            .sum::<u64>() as f64,
    );
    put(
        format!("mem.{l}.tlb_misses"),
        stats.events.iter().map(|e| e.tlb_misses).sum::<u64>() as f64,
    );
    put(format!("bus.{l}.txns"), stats.bus.total() as f64);
    put(format!("bus.{l}.oracle_checks"), stats.oracle_checks as f64);
    put(format!("bus.{l}.oracle_blocks"), stats.oracle_blocks as f64);
}

/// Replay workloads with `--trace 1`: each pass replays every
/// organization untraced, then traced, and checks the two digests agree.
/// `from_file` decodes the pops file inside each organization's run, as
/// `vrsim` does; otherwise the in-memory trace is replayed.
fn traced_passes(args: &Args, report: &mut Report, trace: &Trace, from_file: bool) {
    let cfg = vrsim_default_config();
    let mut spans: Vec<Span> = Vec::new();
    let mut first = true;
    repeat_for(args.seconds, || {
        let (untraced, untraced_wall) = time_fn(|| {
            ORGS.map(|org| {
                let run = if from_file {
                    decode_file(&args.file).and_then(|(t, _, _)| run_untraced(org, &t, &cfg))
                } else {
                    run_untraced(org, trace, &cfg)
                };
                run.map(|(stats, _)| stats.digest())
            })
        });
        let sample = if first { SPAN_SAMPLE_EVERY } else { 0 };
        let (traced, traced_wall) = time_fn(|| {
            ORGS.map(|org| -> Result<_, String> {
                let (owned, read, decode) = if from_file {
                    let (t, read, decode) = decode_file(&args.file)?;
                    (Some(t), read, decode)
                } else {
                    (None, Duration::ZERO, Duration::ZERO)
                };
                let t = owned.as_ref().unwrap_or(trace);
                let (run, whole) = time_fn(|| replay_traced(org, t, &cfg, sample, &mut spans));
                let (stats, times) = run?;
                // Hierarchy construction, the closing invariant walk,
                // statistics and teardown: the replay outside its loop.
                let build = whole.saturating_sub(times.loop_wall);
                Ok((stats, times, [read, decode, build]))
            })
        });
        first = false;

        let mut layers = Vec::new();
        let mut total = LayerTimes::default();
        let [mut read, mut decode, mut build] = [Duration::ZERO; 3];
        for ((org, untraced), traced) in ORGS.iter().zip(untraced).zip(traced) {
            let untraced = match untraced {
                Ok(digest) => {
                    report.digest_op(org.label, digest.clone());
                    Ok(digest)
                }
                Err(e) => Err(e),
            };
            let result = untraced.and_then(|u| {
                let (stats, times, [r, d, b]) = traced?;
                if stats.digest() != u {
                    return Err(format!(
                        "{}: traced digest {} differs from untraced {u}",
                        org.label,
                        stats.digest()
                    ));
                }
                org_layers(*org, &stats, &times, &mut layers);
                read += r;
                decode += d;
                build += b;
                total.loop_wall += times.loop_wall;
                total.access += times.access;
                total.issue += times.issue;
                total.snoop += times.snoop;
                total.switch += times.switch;
                total.issues += times.issues;
                total.snoops += times.snoops;
                Ok(())
            });
            report.op(result);
        }
        let self_sum = read
            + decode
            + build
            + total.loop_self()
            + total.access_self()
            + total.bus_self()
            + total.snoop
            + total.switch;
        let orgs = ORGS.len() as f64;
        layers.extend([
            ("trace.read_s".to_string(), secs(read) / orgs),
            ("trace.decode_s".to_string(), secs(decode) / orgs),
            ("sim.build_s".to_string(), secs(build)),
            ("sim.loop_self_s".to_string(), secs(total.loop_self())),
            ("sim.bus_self_s".to_string(), secs(total.bus_self())),
            ("sim.bus_issues".to_string(), total.issues as f64),
            ("sim.snoop_deliveries".to_string(), total.snoops as f64),
            (
                "bench.trace_overhead".to_string(),
                secs(traced_wall) / secs(untraced_wall),
            ),
            (
                "bench.self_share".to_string(),
                secs(self_sum) / secs(traced_wall),
            ),
        ]);
        report.layers.push(layers);
    });
    report.spans = spans.len();
    if let Err(e) = write_spans(&args.spans, &spans) {
        report.op(Err(e));
    }
}

fn write_spans(path: &str, spans: &[Span]) -> Result<(), String> {
    let mut out = String::new();
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"ref\":{},\"org\":\"{}\",\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"cpu\":{},\"start\":{},\"end\":{},\"dur_ns\":{}}}",
            s.ref_id, s.org, s.id, s.name, s.cpu, s.start, s.end, s.dur_ns
        );
    }
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    }
    std::fs::write(path, out).map_err(|e| format!("writing {path}: {e}"))
}

/// Worker count of the model battery: the host's parallelism, at most 2.
fn battery_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// Checks a battery run, one operation per scope: a scope fails if it
/// panicked, found a violation, or explored differently from an earlier
/// run. Returns the states and transitions explored.
fn check_battery(report: &mut Report, outcomes: &[ScopeOutcome]) -> (u64, u64) {
    let (mut states, mut transitions) = (0, 0);
    for outcome in outcomes {
        match &outcome.result {
            Ok(r) if r.counterexample.is_none() => {
                states += r.states;
                transitions += r.transitions;
                let digest = fnv1a_hex(&format!("{}\n{}", r.summary(), r.coverage.render()));
                report.digest_op(outcome.name, digest);
            }
            Ok(r) => report.op(Err(format!("{}: violation found", r.name))),
            Err(e) => report.op(Err(format!("{}: {e}", outcome.name))),
        }
    }
    (states, transitions)
}

/// The model battery: `--trace 0` times untraced battery runs; `--trace
/// 1` also runs a traced battery that records each scope's duration.
fn model_battery(args: &Args, report: &mut Report) {
    for _ in 0..SETUP_REPS_MODEL {
        let (alphabets, took) = time_fn(|| {
            (0..MODEL_SETUPS_PER_SAMPLE)
                .map(|_| Scope::all().iter().map(|s| s.events().len()).sum::<usize>())
                .sum::<usize>()
        });
        black_box(alphabets);
        report
            .setup_s
            .push(secs(took) / f64::from(MODEL_SETUPS_PER_SAMPLE));
    }
    let scopes = Scope::all();
    let jobs = battery_jobs();
    repeat_for(args.seconds, || {
        let (outcomes, untraced) = time_fn(|| run_scope_battery(&scopes, jobs, |_| {}));
        (_, report.transitions) = check_battery(report, &outcomes);
        report.pass_s.push(secs(untraced));
        if !args.traced {
            return;
        }
        let mut durations = Vec::new();
        let (traced, traced_wall) =
            time_fn(|| run_scope_battery(&scopes, jobs, |p| durations.push(secs(p.duration))));
        let (states, traced_transitions) = check_battery(report, &traced);
        let busy: f64 = durations.iter().sum();
        let slowest = durations.iter().copied().fold(0.0, f64::max);
        report.layers.push(vec![
            ("model.states".to_string(), states as f64),
            ("model.transitions".to_string(), traced_transitions as f64),
            ("model.scope_s_max".to_string(), slowest),
            (
                "exec.busy_share".to_string(),
                busy / (jobs as f64 * secs(traced_wall)),
            ),
            (
                "bench.trace_overhead".to_string(),
                secs(traced_wall) / secs(untraced),
            ),
        ]);
    });
}

fn run(args: &Args) -> Result<Report, String> {
    let mut report = Report::default();
    match args.workload.as_str() {
        "pops-file" => {
            let trace = setup_replay(args, &mut report, &pops_config(args.seed, args.scale), true)?;
            if args.traced {
                traced_passes(args, &mut report, &trace, true);
            } else {
                drop(trace);
                pops_reference(args, &mut report);
            }
        }
        "shared-8cpu" => {
            let trace = setup_replay(
                args,
                &mut report,
                &shared_config(args.seed, args.scale),
                false,
            )?;
            if args.traced {
                traced_passes(args, &mut report, &trace, false);
            } else {
                shared_passes(args, &mut report, &trace);
            }
        }
        "model-battery" => model_battery(args, &mut report),
        w => return Err(format!("unknown workload {w}")),
    }
    Ok(report)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| run(&args));
    match result {
        Ok(report) => {
            println!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
