#!/usr/bin/env python3
"""Repository benchmark for the wsp waferscale simulator.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run it from the repository root.  It builds perfbench/ (a CMake package
that compiles the library from src/) into .bench_build/perfbench, runs one
workload through the driver, checks the outputs, writes a result artifact
with a host block to .bench_build/results/, and prints one JSON object as
its last line: the end-to-end metrics of BENCHMARK.json with --trace 0, its
per-layer metrics with --trace 1.  See perfbench/README.md.
"""
import argparse
import hashlib
import json
import os
import platform
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import stats  # noqa: E402

DEFAULT_SEEDS = {"cosim-spiking": 2021, "campaign-32": 11}
BUILD_DIR = Path(".bench_build")
BUILD_TIMEOUT_S = 840
RUN_DEADLINE_S = 170  # the driver run, excluding the build
LAYER_PERCENTILE = re.compile(r"^(.*)_(p50|p90|p99|max)$")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr)


def run_group(cmd, timeout, **kwargs):
    """Runs cmd in its own process group and waits for it; on timeout the
    whole group is killed (compilers under cmake included) and reaped.
    Temporary files go under .bench_build, inside the checkout."""
    tmp = Path.cwd() / BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    proc = subprocess.Popen(cmd, start_new_session=True, env=env, **kwargs)
    try:
        return proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build(root):
    """Configures (once) and builds the driver; returns its path or None."""
    build_dir = root / BUILD_DIR / "perfbench"
    build_dir.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (build_dir / "Makefile").exists():
        steps.append(["cmake", "-S", str(root / "perfbench"), "-B",
                      str(build_dir), "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(build_dir), "--target",
                  "perfbench_driver", "-j", jobs])
    log_path = build_dir / "build.log"
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as out:
        for cmd in steps:
            try:
                code = run_group(cmd, max(1.0, deadline - time.monotonic()),
                                 stdout=out, stderr=subprocess.STDOUT)
            except (OSError, subprocess.TimeoutExpired) as e:
                log(f"build step {' '.join(cmd)} did not finish: {e}")
                return None
            if code != 0:
                out.flush()
                tail = log_path.read_text(errors="replace")[-4000:]
                log(f"build failed ({' '.join(cmd)}); end of {log_path}:\n"
                    f"{tail}")
                return None
    return build_dir / "perfbench_driver"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_sha(root):
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                           capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return r.stdout.strip() if r.returncode == 0 else None


def source_digest(root):
    """SHA-256 over the library and benchmark sources: identifies the code
    measured even where the checkout is not a git repository."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((root / top).rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()


def host_block(root, raw):
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "compiler": raw.get("compiler"),
        "build_type": raw.get("build_type"),
        "git_sha": git_sha(root),
        "source_digest": source_digest(root),
        "platform": platform.platform(),
    }


def end_to_end(ledger):
    """End-to-end metrics from the untraced repetitions, with the sample
    count behind each."""
    series, values = ledger["series"], ledger["values"]
    wall_s = stats.median(series["wall_s"])
    epoch = stats.timing_summary(series["epoch_ms"])
    per_rep = stats.split_by_counts(series["epoch_ms"],
                                    series["epochs_per_rep"])
    metrics = {
        "setup_s": stats.median(series["setup_s"]),
        "wall_s": wall_s,
        "sim_rate": values["tile_cycles"] / wall_s / 1e6,
        # Median over repetitions of each repetition's percentile, so a
        # burst of host interference in one repetition cannot move it.
        "epoch_ms_p50": stats.median(
            [stats.nearest_rank(r, 0.5) for r in per_rep]),
        "epoch_ms_p90": stats.median(
            [stats.nearest_rank(r, 0.9) for r in per_rep]),
        "peak_rss_mib": values["peak_rss_kib"] / 1024.0,
        "sim_p99_cycles": values["sim_p99_cycles"],
        "sim_usable_frac": values["sim_usable_frac"],
    }
    samples = {"setup_s": len(series["setup_s"]),
               "wall_s": len(series["wall_s"]),
               "epoch_ms": epoch}
    return metrics, samples


def per_layer(ledger, names):
    """Per-layer metrics from the traced run.  A layer this workload does
    not call reads 0."""
    series, values = ledger["series"], ledger["values"]

    def med(name):
        return stats.median(series[name]) if series.get(name) else 0.0

    # The cosim recomposition skips gauge publishing, so the cosim records
    # the traced time of the untraced run's own work separately.
    overhead_series = ("overhead_traced_ms" if series.get("overhead_traced_ms")
                       else "traced_wall_ms")
    derived = {
        "coverage_pct": stats.median(
            [stats.coverage_pct(c, w) for c, w in
             zip(series["traced_covered_ms"], series["traced_wall_ms"])]),
        "trace_overhead_pct": stats.trace_overhead_pct(
            med(overhead_series), med("untraced_wall_ms")),
    }
    if series.get("calls:resilience.trial_ms"):
        derived["exec.parallel_eff"] = (
            sum(series["calls:resilience.trial_ms"]) /
            (values["threads"] * med("untraced_wall_ms")))
    if series.get("layer:cosim.couple_ms"):
        derived["cosim.publish_ms"] = med("layer:cosim.couple_ms") - sum(
            med("layer:" + n) for n in ("cosim.harvest_ms",
                                        "cosim.power_map_ms",
                                        "pdn.solve_ms", "noc.ber_ms"))

    metrics, samples = {}, {}
    for name in names:
        match = LAYER_PERCENTILE.match(name)
        calls = series.get("calls:" + match.group(1)) if match else None
        if name in derived:
            metrics[name] = derived[name]
        elif series.get("layer:" + name):
            metrics[name] = med("layer:" + name)
            samples[name] = len(series["layer:" + name])
        elif "value:" + name in values:
            metrics[name] = values["value:" + name]
        elif calls:
            which = match.group(2)
            metrics[name] = (max(calls) if which == "max" else
                             stats.nearest_rank(calls, int(which[1:]) / 100))
            samples[name] = stats.timing_summary(calls)
        else:
            metrics[name] = 0.0
    samples["traced_repetitions"] = len(series["traced_wall_ms"])
    return metrics, samples


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    try:
        spec = json.loads((root / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        log(f"cannot read BENCHMARK.json in {root}: {e}")
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"unknown workload {args.workload!r}")
        return 2
    if not (root / "src" / "wsp").is_dir():
        log("library sources src/wsp not found; run from the repository root")
        return 2
    driver = build(root)
    if driver is None:
        return 3

    seed = args.seed if args.seed is not None else DEFAULT_SEEDS[args.workload]
    seconds = args.seconds or spec["run_seconds"]
    scratch = root / BUILD_DIR / "scratch" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    raw_path = scratch / "raw.json"
    try:
        code = run_group([str(driver), "--workload", args.workload,
                          "--seed", str(seed), "--seconds", str(seconds),
                          "--trace", str(args.trace),
                          "--scratch", str(scratch), "--out", str(raw_path)],
                         RUN_DEADLINE_S)
        if code != 0:
            log(f"driver exited with code {code}")
            return 4
        raw = json.loads(raw_path.read_text())
    except (OSError, ValueError, subprocess.TimeoutExpired) as e:
        log(f"driver run failed: {e}")
        return 4
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    ledger = raw["ledger"]
    attempted, failed = stats.count_checks(ledger["checks"])
    if args.trace:
        declared = spec["per_layer"]
        metrics, samples = per_layer(ledger, [m["name"] for m in declared])
    else:
        declared = spec["end_to_end"]
        metrics, samples = end_to_end(ledger)
    result = {name: {"value": float(metrics[name]), "unit": unit}
              for name, unit in ((m["name"], m["unit"]) for m in declared)}

    artifact = {
        "workload": args.workload, "seed": seed, "seconds": seconds,
        "trace": args.trace, "host": host_block(root, raw),
        "metrics": result, "samples": samples,
        "fail_frac": stats.fail_frac(failed, attempted),
        "checks": ledger["checks"],
    }
    results_dir = root / BUILD_DIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    artifact_path = (results_dir /
                     f"{args.workload}-seed{seed}-trace{args.trace}.json")
    artifact_path.write_text(json.dumps(artifact, indent=1) + "\n")

    print(f"# {args.workload} seed={seed} seconds={seconds} "
          f"trace={args.trace}  artifact: {artifact_path.relative_to(root)}")
    for name, m in result.items():
        n = samples.get(name)
        note = f"  (n={n})" if isinstance(n, int) else ""
        print(f"#   {name:<26} {m['value']:>16.6g} {m['unit']}{note}")
    epoch = samples.get("epoch_ms")
    if epoch:
        top = epoch["highest"]
        print(f"#   epoch_ms: n={epoch['n']}, highest percentile with ten "
              f"samples beyond it: "
              + (f"p{top['p'] * 100:g} = {top['value']:.6g} ms" if top
                 else "none (fewer than 20 samples)"))
    print(f"#   checks: {attempted - failed}/{attempted} passed, "
          f"fail_frac = {stats.fail_frac(failed, attempted):g}")
    for c in ledger["checks"]:
        if not c["ok"]:
            print(f"#   FAILED check: {c['name']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
