"""The kacoh benchmark: closed-loop query workloads against the public API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of h1_twists, roots_highrank, oracle_sweep, or ``all`` to run
each in turn.  With ``--trace 0`` it prints the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced run.  Human-readable lines
come first; the last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The full
result, with the environment and sample counts, is also written to
``perfbench/out/``.

Every workload runs in fresh worker processes (``worker.py``), one at a
time: one client, closed loop.  Each worker times its own set-up, from the
moment it was started until its queries are ready; ``setup_s`` is the
median over all workers of the run, at least five.  Every answer is checked
against digests recorded in ``data/``; a wrong or failed answer counts in
``failed``.

The host this was written on changes speed by up to 2x within seconds, so
every time is scaled to reference speed by ``hostspeed`` probes run next to
it; the unscaled wall-clock figures are printed and kept in the result.
Percentiles are Harrell-Davis estimates over the latencies of all passes.
A traced run ignores ``--seconds``: it runs one untraced and one traced pass.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import hostspeed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_PASSES = 2
SETUP_ONLY_MIN = 3        # set-up-only workers: at least this many ...
SETUP_ONLY_S = 4.0        # ... and more while this much time has not passed
WORKER_TIMEOUT_S = 170

UNITS = {
    "queries_per_s": "1/s",
    "query_ms_p50": "ms",
    "query_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def run_worker(workload, mode, *extra) -> dict:
    """Run one worker to its end and return its result line."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--mode", mode]
    cmd += [str(x) for x in extra]
    proc = subprocess.Popen(cmd + ["--spawned-at", repr(perf_counter())],
                            cwd=ROOT, stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    lines = out.decode().strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    return json.loads(lines[-1])


def environment(seed) -> dict:
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cython_importable": importlib.util.find_spec("Cython") is not None,
        "git_commit": commit or "unknown (not a git checkout)",
        "seed": seed,
    }


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    out = d
    for m in range(1, 1000):
        for num in (
            m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
            -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1)),
        ):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + num / c
            c = c if abs(c) > tiny else tiny
            out *= d * c
        if abs(d * c - 1.0) < 1e-14:
            break
    return out


def beta_cdf(a: float, b: float, x: float) -> float:
    """Regularized incomplete beta function I_x(a, b)."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1) / (a + b + 2):
        return front * _beta_fraction(a, b, x) / a
    return 1.0 - front * _beta_fraction(b, a, 1.0 - x) / b


def percentile(samples, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile.

    A weighted mean of all order statistics, with weights from the beta
    distribution centred on the percentile.  Single order statistics of a
    few hundred noisy latencies jump between neighbours; this averages them
    while still estimating the same percentile.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    if n == 1:
        return ordered[0]
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    cdf = [beta_cdf(a, b, i / n) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(cdf, cdf[1:], ordered))


def pooled(passes, key="scaled_latencies_s") -> list:
    """Every latency of every pass; failed queries have none."""
    return [x for p in passes for x in p[key] if x is not None]


def end_to_end(workload, seed, seconds) -> dict:
    """Set-up-only workers, then passes in fresh workers in the seed's order.

    Another pass starts only while the mean pass still fits in ``seconds``.
    Every worker's set-up is a set-up sample.
    """
    started = perf_counter()
    setups = []
    while len(setups) < SETUP_ONLY_MIN or perf_counter() - started < SETUP_ONLY_S:
        setups.append(run_worker(workload, "setup")["setup"])
    passes, durations = [], []
    while True:
        t0 = perf_counter()
        passes.append(run_worker(workload, "pass", "--seed", seed))
        setups.append(passes[-1]["setup"])
        durations.append(perf_counter() - t0)
        elapsed = perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed + statistics.mean(durations) > seconds:
            break
    latencies = pooled(passes)
    if not latencies:
        raise WorkerError("no query succeeded")
    metrics = {
        "queries_per_s": len(latencies) / sum(latencies),
        "query_ms_p50": 1000 * percentile(latencies, 50),
        "query_ms_p90": 1000 * percentile(latencies, 90),
        "setup_s": statistics.median(s["scaled_s"] for s in setups),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    wall = pooled(passes, "latencies_s")
    first = passes[0]
    return {
        "queries": first["queries"],
        "specs": first["specs"],
        "kernel": first["kernel"],
        "attempted": first["queries"] * len(passes),
        "failures": [f for p in passes for f in p["failures"]],
        "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()},
        "samples": {"passes": len(passes), "latency": len(latencies), "setup": len(setups)},
        "wall_clock": {
            "pass_s": [p["pass_s"] for p in passes],
            "setup_s": [s["wall_s"] for s in setups],
            "queries_per_s": len(wall) / sum(wall),
            "query_ms_p50": 1000 * percentile(wall, 50),
            "query_ms_p90": 1000 * percentile(wall, 90),
        },
        "passes": passes,
    }


def traced(workload, seed) -> dict:
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json.gz"
    result = run_worker(workload, "trace", "--seed", seed, "--spans", spans_path)
    metrics = result.pop("metrics")
    setup = result["setup"]
    metrics["lattice.spec_build_s"] = setup["spec_build_s"] * setup["scaled_s"] / setup["wall_s"]
    metrics["workload.queries_per_spec"] = result["queries"] / result["specs"]
    result["metrics"] = {
        k: {"value": v, "unit": layer_unit(k)} for k, v in sorted(metrics.items())
    }
    result["attempted"] = 2 * result["queries"]
    result["samples"] = {"passes": 2}
    result["spans_file"] = str(spans_path.relative_to(ROOT))
    return result


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_frac", "_ratio")) or name == "workload.queries_per_spec":
        return "ratio"
    return "count"


def report(workload, result, trace: bool):
    """Human-readable lines for one workload."""
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"# {workload}: {result['queries']} queries over {result['specs']} specs "
          f"({result['queries'] / result['specs']:.1f} per spec), "
          f"{result['samples']['passes']} passes, kernel {result['kernel']}")
    notes = {}
    if not trace:
        samples = result["samples"]
        n = f"  (n={samples['latency']} over {samples['passes']} passes)"
        notes = {
            "queries_per_s": n,
            "query_ms_p50": n,
            "query_ms_p90": n,
            "setup_s": f"  (median of {samples['setup']})",
            "peak_rss_mb": f"  (median of {samples['passes']} workers)",
        }
    for name, m in result["metrics"].items():
        note = notes.get(name, "")
        print(f"{workload:15s} {name:30s} {m['value']:14.6g} {m['unit']}{note}")
    print(f"{workload:15s} {'error_rate':30s} {failed / attempted:14.6g} ratio"
          f"  ({failed} of {attempted})")
    for name, row in sorted(result.get("layers", {}).items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"# layer {name:30s} calls {row['calls']:8d} busy {row['busy_s']:9.4f} s"
              f"  self {row['self_s']:9.4f} s")
    if "wall_clock" in result:
        print(f"# {workload} unscaled: {json.dumps(result['wall_clock'])}")
    for line in result["failures"][:10]:
        print(f"# FAILED {line}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    OUT_DIR.mkdir(exist_ok=True)
    env = environment(args.seed)
    print(f"# env {json.dumps(env)}")
    attempted = failed = 0
    metrics = {}
    for name in names:
        try:
            if args.trace:
                result = traced(name, args.seed)
            else:
                result = end_to_end(name, args.seed, args.seconds)
        except (WorkerError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
            print(f"perfbench: {name}: {exc}", file=sys.stderr)
            return 1
        result["environment"] = dict(env, orbit_kernel=result["kernel"])
        result["workload"] = name
        tag = "trace" if args.trace else "e2e"
        with open(OUT_DIR / f"result-{name}-{tag}-seed{args.seed}.json", "w") as fh:
            json.dump(result, fh, indent=1)
        report(name, result, bool(args.trace))
        attempted += result["attempted"]
        failed += len(result["failures"])
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + k: v for k, v in result["metrics"].items()})
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
