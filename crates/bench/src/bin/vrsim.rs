//! `vrsim` — command-line front end for the vrcache simulator.
//!
//! ```text
//! vrsim gen --preset pops --scale 0.1 --out pops.vrt
//!     Generate a trace and store it in the binary trace format.
//!
//! vrsim run [--trace-file f.vrt | --preset pops --scale 0.05]
//!           [--kind vr|rr|rr-noincl|goodman] [--l1 16384] [--l2 262144]
//!           [--block 16] [--split] [--write-through] [--eager-flush]
//!           [--asid-tags]
//!     Replay a trace on a system and print hit ratios, bus traffic and
//!     per-CPU events. A trace file is streamed: a second thread decodes
//!     it chunk by chunk while the simulator replays the chunks before.
//!
//! vrsim inspect [--trace-file f.vrt | --preset pops --scale 0.05]
//!     Print trace characteristics and locality curves.
//!
//! vrsim layout [--l1 16384] [--l2 262144] [--block 16] [--block2 32]
//!     Print the Figure-3 tag layout and the inclusion bound.
//! ```

use std::collections::BTreeMap;
use std::fs::File;
use std::process::ExitCode;
use std::sync::mpsc::{self, Receiver, Sender, SyncSender};
use std::thread;

use vrcache::config::HierarchyConfig;
use vrcache::inclusion::{min_l2_assoc_for_inclusion, satisfies_inclusion_bound};
use vrcache::layout::TagLayout;
use vrcache_bench::emit;
use vrcache_cache::geometry::CacheGeometry;
use vrcache_mem::access::CpuId;
use vrcache_mem::page::PageSize;
use vrcache_sim::system::{HierarchyKind, System};
use vrcache_trace::analysis::{reuse_histogram, working_set_curve};
use vrcache_trace::codec::{self, CodecError, Decoder};
use vrcache_trace::presets::TracePreset;
use vrcache_trace::record::TraceEvent;
use vrcache_trace::trace::{Trace, TraceSummary};

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  vrsim gen --preset <pops|thor|abaqus> [--scale S] --out <file>\n  \
         vrsim run [--trace-file F | --preset P --scale S] [--kind vr|rr|rr-noincl|goodman]\n            \
         [--l1 BYTES] [--l2 BYTES] [--block BYTES] [--split] [--write-through]\n            \
         [--eager-flush] [--asid-tags] [--update-protocol] [--drain N]\n  \
         vrsim inspect [--trace-file F | --preset P --scale S]\n  \
         vrsim layout [--l1 BYTES] [--l2 BYTES] [--block BYTES] [--block2 BYTES]"
    );
    ExitCode::FAILURE
}

fn parse_flags(args: &[String]) -> Result<BTreeMap<String, String>, String> {
    let mut flags = BTreeMap::new();
    let mut i = 0;
    while i < args.len() {
        let arg = &args[i];
        let Some(name) = arg.strip_prefix("--") else {
            return Err(format!("unexpected argument: {arg}"));
        };
        // Boolean flags take no value.
        if matches!(
            name,
            "split" | "write-through" | "eager-flush" | "asid-tags" | "update-protocol"
        ) {
            flags.insert(name.to_string(), "true".to_string());
            i += 1;
            continue;
        }
        let Some(value) = args.get(i + 1) else {
            return Err(format!("--{name} needs a value"));
        };
        flags.insert(name.to_string(), value.clone());
        i += 2;
    }
    Ok(flags)
}

fn preset_of(name: &str) -> Option<TracePreset> {
    match name {
        "pops" => Some(TracePreset::Pops),
        "thor" => Some(TracePreset::Thor),
        "abaqus" => Some(TracePreset::Abaqus),
        _ => None,
    }
}

fn load_trace(flags: &BTreeMap<String, String>) -> Result<Trace, String> {
    if let Some(path) = flags.get("trace-file") {
        return open_trace_file(path)?
            .into_trace()
            .map_err(|e| format!("decoding {path}: {e}"));
    }
    generate_preset(flags)
}

/// A decoder over the trace file at `path`, its header parsed. The file
/// is read through the decoder's fixed window, never whole.
fn open_trace_file(path: &str) -> Result<Decoder<File>, String> {
    let file = File::open(path).map_err(|e| format!("reading {path}: {e}"))?;
    let len = file
        .metadata()
        .map_err(|e| format!("reading {path}: {e}"))?
        .len();
    Decoder::from_reader(file, len).map_err(|e| format!("decoding {path}: {e}"))
}

fn generate_preset(flags: &BTreeMap<String, String>) -> Result<Trace, String> {
    let preset = flags.get("preset").map(String::as_str).unwrap_or("pops");
    let preset = preset_of(preset).ok_or_else(|| format!("unknown preset: {preset}"))?;
    let scale: f64 = flags
        .get("scale")
        .map(|s| s.parse().map_err(|_| format!("bad scale: {s}")))
        .transpose()?
        .unwrap_or(0.05);
    if !(scale > 0.0 && scale <= 1.0) {
        return Err(format!("scale must be in (0,1], got {scale}"));
    }
    eprintln!("[vrsim] generating {preset} at scale {scale} ...");
    Ok(preset.generate_scaled(scale))
}

/// The value of the numeric flag `--name`, if given. The one parser of
/// every numeric flag: a value that is not a `u64` is an error, never a
/// silent default.
fn u64_flag(flags: &BTreeMap<String, String>, name: &str) -> Result<Option<u64>, String> {
    flags
        .get(name)
        .map(|s| s.parse().map_err(|_| format!("bad --{name}: {s}")))
        .transpose()
}

fn config_of(flags: &BTreeMap<String, String>) -> Result<HierarchyConfig, String> {
    let l1 = u64_flag(flags, "l1")?.unwrap_or(16 * 1024);
    let l2 = u64_flag(flags, "l2")?.unwrap_or(256 * 1024);
    let block = u64_flag(flags, "block")?.unwrap_or(16);
    let mut cfg = HierarchyConfig::direct_mapped(l1, l2, block)
        .map_err(|e| format!("invalid geometry: {e}"))?;
    if flags.contains_key("split") {
        cfg = cfg.with_split_l1();
    }
    if flags.contains_key("write-through") {
        cfg = cfg.with_write_through();
    }
    if flags.contains_key("eager-flush") {
        cfg = cfg.with_eager_flush();
    }
    if flags.contains_key("asid-tags") {
        cfg = cfg.with_asid_tags();
    }
    if flags.contains_key("update-protocol") {
        cfg = cfg.with_update_protocol();
    }
    if let Some(period) = u64_flag(flags, "drain")? {
        cfg = cfg.with_drain_period(period);
    }
    Ok(cfg)
}

fn cmd_gen(flags: &BTreeMap<String, String>) -> Result<String, String> {
    let trace = load_trace(flags)?;
    let out = flags.get("out").ok_or("gen needs --out <file>")?;
    let bytes = codec::encode(&trace);
    std::fs::write(out, &bytes).map_err(|e| format!("writing {out}: {e}"))?;
    Ok(format!(
        "wrote {} ({} events, {} bytes)\n",
        out,
        trace.len(),
        bytes.len()
    ))
}

fn cmd_run(flags: &BTreeMap<String, String>) -> Result<String, String> {
    let cfg = config_of(flags)?;
    let kind = match flags.get("kind").map(String::as_str).unwrap_or("vr") {
        "vr" => HierarchyKind::Vr,
        "rr" => HierarchyKind::RrInclusive,
        "rr-noincl" => HierarchyKind::RrNonInclusive,
        "goodman" => HierarchyKind::GoodmanSingleLevel,
        k => return Err(format!("unknown kind: {k}")),
    };
    if let Some(path) = flags.get("trace-file") {
        replay_file(kind, &cfg, path)
    } else {
        let trace = generate_preset(flags)?;
        let mut replay = Replay::new(kind, &cfg, TraceSummary::new(trace.name(), trace.cpus()));
        for event in &trace {
            replay.step(event)?;
        }
        replay.report()
    }
}

/// A `vrsim run` in progress: a fresh system of `summary.cpus`
/// processors and the trace summary its events fold into.
struct Replay<'a> {
    kind: HierarchyKind,
    cfg: &'a HierarchyConfig,
    summary: TraceSummary,
    sys: System,
}

impl<'a> Replay<'a> {
    fn new(kind: HierarchyKind, cfg: &'a HierarchyConfig, summary: TraceSummary) -> Self {
        let sys = System::new(kind, summary.cpus, cfg);
        Replay {
            kind,
            cfg,
            summary,
            sys,
        }
    }

    fn step(&mut self, event: &TraceEvent) -> Result<(), String> {
        self.summary.record(event);
        self.sys
            .step(event)
            .map_err(|e| format!("simulation failed: {e}"))
    }

    /// Checks the closing invariants and renders the `vrsim run` report.
    fn report(self) -> Result<String, String> {
        let Replay {
            kind,
            cfg,
            summary,
            sys,
        } = self;
        sys.check_invariants()
            .map_err(|e| format!("invariants failed: {e}"))?;
        let run = sys.summary();
        let mut out = format!(
            "trace: {summary}\norganization: {kind}, L1 {} / L2 {}\nh1 = {:.4}   h2(local) = {:.4}\n{}\n",
            cfg.l1, cfg.l2, run.h1, run.h2_local, run.bus
        );
        for c in 0..summary.cpus {
            out.push_str(&format!("cpu{c}: {}\n", sys.events(CpuId::new(c))));
        }
        Ok(out)
    }
}

/// Events per chunk handed from the decoding thread to the simulator.
const CHUNK_EVENTS: usize = 4096;
/// Decoded chunks that may wait for the simulator: enough to ride out
/// jitter on either side, few enough to keep memory flat.
const CHUNKS_AHEAD: usize = 4;

/// A run of consecutive decoded events, ending in the decode error that
/// stopped the stream if one did.
struct Chunk {
    events: Vec<TraceEvent>,
    error: Option<CodecError>,
}

/// Replays the trace file at `path` with decoding overlapped: a scoped
/// producer thread decodes the file into fixed-size chunks and hands
/// them over a bounded channel while this thread simulates, and every
/// emptied chunk buffer goes back to be refilled. Chunks arrive in
/// stream order, so the first failure, decode or simulation, is the one
/// a one-thread replay would hit, with the same message.
fn replay_file(kind: HierarchyKind, cfg: &HierarchyConfig, path: &str) -> Result<String, String> {
    let decoder = open_trace_file(path)?;
    let mut replay = Replay::new(kind, cfg, TraceSummary::new(decoder.name(), decoder.cpus()));
    let (full_tx, full_rx) = mpsc::sync_channel(CHUNKS_AHEAD);
    let (empty_tx, empty_rx) = mpsc::channel();
    thread::scope(|scope| {
        let producer = thread::Builder::new()
            .name("decode".into())
            .spawn_scoped(scope, move || decode_chunks(decoder, &full_tx, &empty_rx))
            .map_err(|e| format!("starting the decoder thread: {e}"))?;
        simulate_chunks(&mut replay, full_rx, &empty_tx, path)?;
        // A producer that died early closed the channel mid-stream: that
        // is a failure, not the end of the trace.
        producer
            .join()
            .map_err(|_| format!("decoding {path}: the decoder thread panicked"))
    })?;
    replay.report()
}

/// The producer: decodes `decoder` into chunks, one batch call each,
/// until the stream ends, fails, or the consumer hangs up.
fn decode_chunks(
    mut decoder: Decoder<File>,
    full: &SyncSender<Chunk>,
    empty: &Receiver<Vec<TraceEvent>>,
) {
    loop {
        let mut events = empty
            .try_recv()
            .unwrap_or_else(|_| Vec::with_capacity(CHUNK_EVENTS));
        let error = decoder.read_into(&mut events, CHUNK_EVENTS).err();
        let last = error.is_some() || events.len() < CHUNK_EVENTS;
        if full.send(Chunk { events, error }).is_err() || last {
            return;
        }
    }
}

/// The consumer: steps `replay` through every chunk in order and returns
/// each emptied buffer. Takes the receiver by value, so a failure drops
/// it and the producer, blocked or not, stops at its next send.
fn simulate_chunks(
    replay: &mut Replay<'_>,
    full: Receiver<Chunk>,
    empty: &Sender<Vec<TraceEvent>>,
    path: &str,
) -> Result<(), String> {
    for Chunk { mut events, error } in full {
        for event in &events {
            replay.step(event)?;
        }
        if let Some(e) = error {
            return Err(format!("decoding {path}: {e}"));
        }
        events.clear();
        // The producer is gone once it has sent the final chunk; the
        // buffer is then simply dropped.
        let _ = empty.send(events);
    }
    Ok(())
}

fn cmd_inspect(flags: &BTreeMap<String, String>) -> Result<String, String> {
    let trace = load_trace(flags)?;
    let ws = working_set_curve(&trace, CpuId::new(0), 16, &[100, 1_000, 10_000]);
    let reuse = reuse_histogram(&trace, CpuId::new(0), 16);
    Ok(format!(
        "{}\n\nworking-set curve (cpu0, 16B blocks):\n{ws}\n\
         reuse distances (cpu0, 16B blocks):\n{reuse}\n\
         \nfully-associative LRU miss ratios: 256 blocks {:.3}, 1024 blocks {:.3}\n",
        trace.summary(),
        reuse.lru_miss_ratio(256),
        reuse.lru_miss_ratio(1024),
    ))
}

fn cmd_layout(flags: &BTreeMap<String, String>) -> Result<String, String> {
    let block = u64_flag(flags, "block")?.unwrap_or(16);
    let l1 = CacheGeometry::direct_mapped(u64_flag(flags, "l1")?.unwrap_or(16 * 1024), block)
        .map_err(|e| e.to_string())?;
    let l2 = CacheGeometry::direct_mapped(
        u64_flag(flags, "l2")?.unwrap_or(256 * 1024),
        u64_flag(flags, "block2")?.unwrap_or(block),
    )
    .map_err(|e| e.to_string())?;
    let page = PageSize::SIZE_4K;
    let t = TagLayout::compute(32, page, &l1, &l2);
    Ok(format!(
        "{t}\nstrict-inclusion bound: A2 >= {} ({}satisfied by direct-mapped L2)\n",
        min_l2_assoc_for_inclusion(&l1, &l2, page),
        if satisfies_inclusion_bound(&l1, &l2, page) {
            ""
        } else {
            "NOT "
        },
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        return usage();
    };
    let flags = match parse_flags(rest) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };
    let result = match cmd.as_str() {
        "gen" => cmd_gen(&flags),
        "run" => cmd_run(&flags),
        "inspect" => cmd_inspect(&flags),
        "layout" => cmd_layout(&flags),
        _ => return usage(),
    };
    match result.and_then(|out| emit(&out)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
