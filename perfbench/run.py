#!/usr/bin/env python3
"""Host-speed benchmark of the vrcache simulator.

    python3 perfbench/run.py --workload <pops-file|shared-8cpu|model-battery>
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root. Builds `vrsim` and this directory's
`perfbench` worker into $CARGO_TARGET_DIR (default `.bench_build`), runs
one workload, checks its outputs, and prints every metric by name with its
unit. The last stdout line is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics of
BENCHMARK.json with `--trace 0`, its per-layer metrics with `--trace 1`.
Full results, provenance and sampled span trees go to `.bench_out/`.
See README.md in this directory.
"""

import argparse
import json
import os
import shlex
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from benchstats import beyond, median, percentile  # noqa: E402

# Workload -> default seed. pops-file keeps the pops preset's own seed;
# shared-8cpu keeps WorkloadConfig::default()'s; the model battery is
# exhaustive and takes none.
DEFAULT_SEEDS = {"pops-file": 0x9095, "shared-8cpu": 0xC0FFEE, "model-battery": 0}

# (metric-name label, `vrsim run --kind`) in the paper's column order.
ORGS = [("vr", "vr"), ("rr_incl", "rr"), ("rr_noincl", "rr-noincl"), ("goodman", "goodman")]


class BenchError(Exception):
    """The benchmark could not run (build failure, worker crash)."""


def target_dir():
    return Path(os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build")))


def build(target):
    """Builds the shipped `vrsim` and the `perfbench` worker, release."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-q", "-p", "vrcache-bench", "--bin", "vrsim"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", str(HERE / "Cargo.toml")],
    ):
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))
    return target / "release" / "vrsim", target / "release" / "perfbench"


def run_child(cmd):
    """Runs `cmd` to completion in a process of its own. Returns (exit
    code, stdout, host seconds, peak resident MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE)
    out = proc.stdout.read()
    proc.stdout.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out.decode(), wall, usage.ru_maxrss / 1024.0


def run_worker(perfbench, args, extra, seconds=None):
    seconds = args.seconds if seconds is None else seconds
    cmd = [str(perfbench), args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
           "--trace", str(args.trace), "--scale", str(args.scale)] + extra
    code, out, _, rss = run_child(cmd)
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        raise BenchError(f"worker exited with {code}: {' '.join(cmd)}")
    return json.loads(lines[-1]), rss


def vrsim_passes(vrsim, trace_file, seconds, report):
    """pops-file: replays the trace file with `vrsim run --kind K` for each
    organization until `seconds` of pass time are measured. Each child's
    stdout must equal the in-process replay's. Returns (pass seconds,
    peak MB, attempted, errors)."""
    passes, peak, attempted, errors = [], 0.0, 0, []
    while not passes or sum(passes) < seconds:
        pass_s = 0.0
        for label, kind in ORGS:
            code, out, wall, rss = run_child([str(vrsim), "run", "--trace-file", trace_file, "--kind", kind])
            attempted += 1
            if code != 0:
                errors.append(f"vrsim --kind {kind} exited with {code}")
            elif out != report["reference"][kind]:
                errors.append(f"vrsim --kind {kind} stats differ from the in-process replay ({label})")
            pass_s += wall
            peak = max(peak, rss)
        passes.append(pass_s)
    return passes, peak, attempted, errors


def end_to_end(args, vrsim, perfbench, out_dir):
    """The untraced run: end-to-end metrics (plus the workload-specific
    ones printed for readers)."""
    trace_file = str(out_dir / f"pops-{args.seed}.vrt")
    report, rss = run_worker(perfbench, args, ["--file", trace_file])
    attempted, errors = report["attempted"], list(report["errors"])
    extra = {}
    try:
        if args.workload == "pops-file":
            passes, rss, n, errs = vrsim_passes(vrsim, trace_file, args.seconds, report)
            attempted += n
            errors += errs
        else:
            passes = report["pass_s"]
        if args.workload == "model-battery":
            # Each battery pass spawns fresh worker threads, whose malloc
            # arenas fragment over many passes and inflate a long-lived
            # process's peak. A user runs the battery once per process, so
            # its peak is taken from a fresh worker running one pass.
            _, rss = run_worker(perfbench, args, [], seconds=0)
    finally:
        if os.path.exists(trace_file):
            os.remove(trace_file)
    pass_s = median(passes)
    if args.workload == "model-battery":
        extra["transitions_per_s"] = (report["transitions"] / pass_s, "1/s", "higher")
    else:
        extra["refs_per_s"] = (report["refs"] * len(ORGS) / pass_s, "1/s", "higher")
    if args.workload == "shared-8cpu":
        for p in (50, 95):
            extra[f"chunk_ms_p{p}"] = (median([percentile(c, p) for c in report["chunk_ms"]]), "ms", "lower")
        counts = [(len(c), beyond(c, percentile(c, 95))) for c in report["chunk_ms"]]
        extra["chunk_samples"] = (min(n for n, _ in counts), "count", "higher")
        extra["chunk_samples_beyond_p95"] = (min(b for _, b in counts), "count", "higher")
    extra["ops_failed_frac"] = (len(errors) / attempted, "ratio", "lower")
    metrics = {
        "pass_s": pass_s,
        "setup_s": median(report["setup_s"]),
        "peak_rss_mb": rss,
    }
    return metrics, extra, attempted, errors, report, {"passes": len(passes)}


def per_layer(args, perfbench, out_dir, declared):
    """The traced run: per-layer metrics, medians over traced passes."""
    trace_file = str(out_dir / f"pops-{args.seed}.vrt")
    spans = str(out_dir / f"spans-{args.workload}.jsonl")
    try:
        report, _ = run_worker(perfbench, args, ["--file", trace_file, "--spans", spans])
    finally:
        if os.path.exists(trace_file):
            os.remove(trace_file)
    names = sorted({k for layer in report["layers"] for k in layer})
    unknown = [n for n in names if n not in declared]
    if unknown:
        raise BenchError(f"worker reported undeclared metrics: {unknown}")
    measured = {n: median([layer[n] for layer in report["layers"]]) for n in names}
    if report["generate_s"]:
        measured["trace.generate_s"] = median(report["generate_s"])
    if report["trace_bytes"]:
        measured["trace.bytes_per_ref"] = report["trace_bytes"] / report["refs"]
    # A layer this workload does not drive through the timing wrappers
    # reads 0 (see README.md, "Per-layer metrics").
    metrics = {n: measured.get(n, 0.0) for n in declared}
    extra = {"ops_failed_frac": (len(report["errors"]) / report["attempted"], "ratio", "lower")}
    info = {"passes": len(report["layers"]), "spans": report["spans"]}
    if report["spans"]:
        info["spans_file"] = spans
    return metrics, extra, report["attempted"], list(report["errors"]), report, info


def provenance(args):
    def probe(cmd):
        try:
            r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            return r.stdout.strip() if r.returncode == 0 else "unknown"
        except OSError:
            return "unknown"

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "rustc": probe(["rustc", "--version"]),
        "commit": probe(["git", "rev-parse", "HEAD"]),
        "command": shlex.join([sys.executable] + sys.argv),
    }


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(DEFAULT_SEEDS))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Trace-volume scale for the benchmark's own tests; measurements use 1.
    parser.add_argument("--scale", type=float, default=1.0)
    args = parser.parse_args(argv)
    if args.seed is None:
        args.seed = DEFAULT_SEEDS[args.workload]

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in bench[section]}
    vrsim, perfbench = build(target_dir())
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    if args.trace:
        metrics, extra, attempted, errors, report, info = per_layer(args, perfbench, out_dir, declared)
    else:
        metrics, extra, attempted, errors, report, info = end_to_end(args, vrsim, perfbench, out_dir)

    prov = provenance(args)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    print(f"samples: {json.dumps(info, sort_keys=True)}")
    for name, value in metrics.items():
        m = declared[name]
        print(f"{name} = {value:.6g} {m['unit']} ({m['better']} is better)")
    for name, (value, unit, better) in extra.items():
        print(f"{name} = {value:.6g} {unit} ({better} is better)")
    print(f"ops: attempted {attempted}, failed {len(errors)}")
    for e in errors:
        print(f"FAILED: {e}")
    for what, digest in sorted(report["digests"].items()):
        print(f"digest {what} = {digest}")

    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": len(errors),
        "metrics": {n: {"value": v, "unit": declared[n]["unit"]} for n, v in metrics.items()},
    }
    full = dict(result, provenance=prov, samples=info, errors=errors,
                extra={k: {"value": v, "unit": u} for k, (v, u, _) in extra.items()},
                digests=report["digests"])
    (out_dir / f"result-{args.workload}-trace{args.trace}.json").write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main(sys.argv[1:]))
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        sys.exit(2)
