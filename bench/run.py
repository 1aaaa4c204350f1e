#!/usr/bin/env python3
"""Benchmark for the secgenus checker: cold-process workloads with an outside-in layer trace.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload verify_all --seed 7 --seconds 60 --trace 0
    python3 bench/run.py --selftest

Workloads (see bench/NOTES.md for the op definitions and predictions):

    verify_all  secgenus --format json verify --suite all --seed S, as the CLI runs it
    models      distinct JSON models: parse, validate, classify, a few twists, g_1
    twists      point queries on the 13 catalog entries (chi, Serre dual, certified h^0);
                not in BENCHMARK.json, run it by hand for point-kernel claims

Every sample runs in a fresh interpreter (``worker.py``) against the
sources under ``src/``, so the caches a user starts cold with are cold.
One closed-loop client: one worker process at a time, single-threaded.
Samples repeat until ``--seconds`` of sampling is used; all samples of a
run use the same seeded inputs, so their output digests must agree.

``--trace 0`` prints the end-to-end metrics.  A sample's time is split
into segments at the end of every op (on ``verify_all`` also at every
check and every chi evaluation, see worker.run_verify), and a run's
``wall_s`` and ``cpu_s`` sum over segments the fastest sample's time for
that segment (``fold_segments``); median, tail and sample count of
whole samples are on the human-readable lines.  ``--trace 1``
alternates untraced and traced samples and prints the per-layer
metrics.  The last stdout line is one JSON object: correct, attempted,
failed, metrics.
``--selftest`` checks the gates themselves: clean runs pass, a planted
wrong model fails, traced and untraced runs agree, and every layer is
called exactly where the prediction table says.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ("verify_all", "models", "twists")
DEFAULT_SEED = 7  # the seed of the ROADMAP baseline
HOLDOUT_SEED = 4634  # kept out of tuning; confirm claimed gains on it
OPS_PER_SAMPLE = {"verify_all": 0, "twists": 4000, "models": 600}
MIN_SETUP_SAMPLES = 12  # set-up is short: take it over many spawns
TIME_LIMIT_S = 170  # every run exits well within 180 s

SUITES = (
    "difference", "jumps", "additivity", "bounds", "integrality",
    "closed", "c2bound", "g0", "serre",
)

# Per-layer metric prefix -> (span name recorded by the tracer, stats reported).
LAYERS = {
    "binpoly.coefficients_from_oracle": (
        "binpoly.coefficients_from_oracle", ("calls", "oracle_points", "self_s")),
    "genus.chi_H_i": ("genus.chi_H_i", ("calls", "self_s")),
    "hrr.chi_divisor": ("hrr.chi_divisor", ("calls", "self_s", "us_per_call")),
    "hrr.chi_multi": ("hrr.chi_multi", ("calls", "self_s")),
    "variety.intersection_number": (
        "variety.intersection_number", ("calls", "self_s", "us_per_call")),
    "variety.c2_pair": ("variety.c2_pair", ("calls", "self_s")),
    "hrr.h0_certified": ("hrr.h0_certified", ("calls", "oracle_route_share")),
    "variety.h0_exact": ("variety.h0_exact", ("calls",)),
    "variety.variety_from_json": ("variety.variety_from_json", ("self_s",)),
    "variety.validate": ("variety.validate", ("self_s",)),
    "classify.classify_variety": ("classify.classify_variety", ("calls", "self_s")),
    "adjoint.difference_rhs": ("adjoint.difference_rhs", ("calls", "self_s")),
    "adjoint.difference_lhs": ("adjoint.difference_lhs", ("calls", "self_s")),
    "adjoint.jump_rhs": ("adjoint.jump_rhs", ("calls", "self_s")),
    "adjoint.check_multiple_bound": ("adjoint.check_multiple_bound", ("calls", "self_s")),
    "report.to_json": ("report.VerificationReport.to_json", ("self_s",)),
}
LAYERS.update({f"suites.{s}": (f"suites.suite_{s}", ("wall_s", "checks")) for s in SUITES})
STAT_UNITS = {
    "calls": "count", "self_s": "s", "us_per_call": "us", "oracle_points": "count",
    "oracle_route_share": "ratio", "wall_s": "s", "checks": "count",
}
OTHER_LAYER_METRICS = {
    "genus.cache.hit_ratio": "ratio",
    "genus.cache.entries": "count",
    "hrr.chi_evals_per_op": "1/op",
    "variety.DivisorClass.created": "count",
    "report.bytes": "B",
    "cli.import_s": "s",
    "cli.catalog_s": "s",
    "trace.spans": "count",
    "trace.wrapped_callables": "count",
    "trace.overhead_s": "s",
    "trace.prediction_misses": "count",
    "run.fail_ratio": "ratio",
    "run.abstain_ratio": "ratio",
}

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Span name (or prefix ending in ".") -> workloads on which it must be called.
# Every other workload must not call it.  semigroup is on no workload's path.
ALL = set(WORKLOADS)
NONZERO_ON = {
    "binpoly.coefficients_from_oracle": {"verify_all", "models"},
    "genus.chi_H_i": {"verify_all"},
    "hrr.chi_divisor": ALL,
    "hrr.chi_multi": {"verify_all", "models"},
    "variety.intersection_number": ALL,
    "variety.c2_pair": ALL,
    "hrr.h0_certified": ALL,
    "variety.h0_exact": {"twists", "models"},
    "variety.variety_from_json": {"models"},
    "variety.validate": {"models"},
    "classify.classify_variety": {"models"},
    "genus.g1_closed": {"verify_all", "models"},
    "adjoint.difference_rhs": {"verify_all"},
    "adjoint.difference_lhs": {"verify_all", "twists"},
    "adjoint.jump_rhs": {"verify_all"},
    "adjoint.check_multiple_bound": {"verify_all"},
    "report.VerificationReport.to_json": {"verify_all"},
    "cli.main": {"verify_all"},
    "suites.suite_": {"verify_all"},
    "semigroup.": set(),
}


def spawn(cfg: dict, deadline: float) -> dict:
    """Run one worker to completion; raise RuntimeError if it fails."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    cfg = dict(cfg, src=str(SRC))
    t0 = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "worker.py"), json.dumps(cfg)],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - t0),
        )
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["t_ready"] - t0
    return result


def tail(values: list[float]) -> tuple[float, float] | None:
    """Highest percentile (nearest rank) with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    for q in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        rank = math.ceil(q / 100 * n)
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return None


def describe(name: str, unit: str, values: list[float]) -> str:
    text = f"  {name:<13} median {statistics.median(values):.6g} {unit}; min {min(values):.6g}"
    t = tail(values)
    if t is None:
        return text + f"; no tail percentile has 10 of {len(values)} samples beyond it"
    return text + f"; p{t[0]:g} {t[1]:.6g} {unit} ({len(values)} samples)"


def fold_segments(fastest: dict, sample: dict) -> bool:
    """Keep per segment the least time (ns) any sample spent in it; False if segments differ.

    On a shared host other tenants slow the samples in bursts whose
    density drifts from run to run, so medians and even the fastest whole
    sample move by up to 35% (NOTES.md).  A burst rarely covers the same
    segment in every sample of a run, so the sum of these least times
    tracks the program's undisturbed time.
    """
    segments = {key: sample.pop(f"seg_{key}_ns") for key in ("wall", "cpu")}
    if not fastest:
        fastest.update(segments)
        return True
    if len(segments["wall"]) != len(fastest["wall"]):
        return False
    for key, values in segments.items():
        fastest[key] = list(map(min, fastest[key], values))
    return True


def prediction_misses(workload: str, stats: dict) -> list[str]:
    misses = [f"{key}: not wrapped" for key in NONZERO_ON
              if not key.endswith(("_", ".")) and key not in stats]
    for span, s in stats.items():
        for key, where in NONZERO_ON.items():
            if span == key or (key.endswith(("_", ".")) and span.startswith(key)):
                if (s["calls"] > 0) != (workload in where):
                    misses.append(f"{span}: {s['calls']} calls on {workload}")
                break
    return misses


def layer_metrics(workload: str, traced: list[dict], plain: list[dict]) -> dict:
    med = statistics.median

    def stat(sample: dict, span: str, what: str) -> float:
        s = sample["trace"]["stats"].get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        extra = sample["trace"]["extra"].get(span, 0)
        if what in ("calls", "self_s"):
            return s[what]
        if what == "wall_s":
            return s["total_s"]
        if what == "us_per_call":
            return 1e6 * s["total_s"] / s["calls"] if s["calls"] else 0.0
        if what == "oracle_route_share":
            return extra / s["calls"] if s["calls"] else 0.0
        return extra  # oracle_points, checks

    metrics = {}
    for prefix, (span, stats) in LAYERS.items():
        for what in stats:
            value = med(stat(t, span, what) for t in traced)
            metrics[f"{prefix}.{what}"] = (value, STAT_UNITS[what])

    cache = traced[0].get("genus_cache")
    lookups = cache["hits"] + cache["misses"] if cache else 0
    chi_calls = traced[0]["trace"]["stats"].get("hrr.chi_divisor", {"calls": 0})["calls"]
    values = {
        "genus.cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "genus.cache.entries": cache["entries"] if cache else 0,
        "hrr.chi_evals_per_op": chi_calls / traced[0]["ops"],
        "variety.DivisorClass.created": traced[0]["trace"]["constructed"].get(
            "variety.DivisorClass", 0),
        "report.bytes": traced[0].get("report_bytes", 0),
        "cli.import_s": med(s["cli_import_s"] for s in plain),
        "cli.catalog_s": med(s["catalog_s"] for s in plain),
        "trace.spans": traced[0]["trace"]["spans"],
        "trace.wrapped_callables": traced[0]["trace"]["wrapped"],
        "trace.overhead_s": med(t["wall_s"] for t in traced) - med(s["wall_s"] for s in plain),
        "trace.prediction_misses": len(prediction_misses(workload, traced[0]["trace"]["stats"])),
    }
    for name, value in values.items():
        metrics[name] = (value, OTHER_LAYER_METRICS[name])
    return metrics


def run(args) -> int:
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    base = {"workload": args.workload, "seed": args.seed, "ops": OPS_PER_SAMPLE[args.workload],
            "plant": False, "trace": 0}
    setup_only = dict(base, workload="setup")
    setups, plain, traced, errors = [], [], [], []
    fastest, misaligned = {}, 0
    window_end = time.monotonic() + args.seconds
    while True:
        t0 = time.monotonic()
        try:
            setups.append(spawn(setup_only, deadline)["setup_s"])
            plain.append(spawn(base, deadline))
            misaligned += not fold_segments(fastest, plain[-1])
            if args.trace:
                traced.append(spawn(dict(base, trace=1), deadline))
                del traced[-1]["seg_wall_ns"], traced[-1]["seg_cpu_ns"]
        except RuntimeError as exc:
            errors.append(str(exc))
            break
        step = time.monotonic() - t0
        if time.monotonic() + step > window_end:
            break
    try:
        while not errors and len(setups) + len(plain) < MIN_SETUP_SAMPLES:
            setups.append(spawn(setup_only, deadline)["setup_s"])
    except RuntimeError as exc:
        errors.append(str(exc))
    if not plain or (args.trace and not traced):
        print(f"no successful sample: {errors}", file=sys.stderr)
        return 1

    samples = plain + traced
    attempted = sum(s["ops"] for s in samples) + len(errors)
    failed = sum(s["failed"] for s in samples) + len(errors)
    abstained = sum(s["abstained"] for s in samples)
    digest = plain[0]["digest"]
    for s in samples:
        if s["digest"] != digest or s["ops"] != plain[0]["ops"]:
            failed += 1
            errors.append(f"output digest {s['digest'][:12]} or op count {s['ops']} differs")
        errors.extend(s["errors"])
    if misaligned:
        failed += misaligned
        errors.append(f"{misaligned} samples split into another number of segments than the first")

    med = statistics.median
    setup_values = setups + [s["setup_s"] for s in plain]
    walls = [s["wall_s"] for s in plain]
    cpus = [s["cpu_s"] for s in plain]
    print(f"secgenus benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} python={platform.python_version()}")
    print(f"  samples: {len(plain)} untraced, {len(traced)} traced, {len(setups)} set-up only; "
          f"one worker process at a time")
    label = "report sha256" if args.workload == "verify_all" else "output sha256"
    print(f"  {label} (seed {args.seed}): {digest}")
    if "reference_rows" in plain[0]:
        print(f"  report rows checked against the reference: {plain[0]['reference_rows']}")
    print(describe("setup_s", "s", setup_values))
    print(describe("wall_s", "s", walls))
    print(describe("cpu_s", "s", cpus))
    # Gated timings discount host bursts: set-up is the fastest of many short
    # spawns, wall and CPU time the sum of the fastest segments.
    wall = sum(fastest["wall"]) / 1e9
    metrics = {
        "setup_s": min(setup_values),
        "wall_s": wall,
        "cpu_s": sum(fastest["cpu"]) / 1e9,
        "ops_per_s": plain[0]["ops"] / wall,
        "peak_rss_mb": med(s["rss_mb"] for s in plain),
    }
    fail_ratio = failed / attempted
    abstain_ratio = abstained / attempted
    print(f"  wall_s, cpu_s fastest segments {metrics['wall_s']:.6g} s, {metrics['cpu_s']:.6g} s "
          f"({len(fastest['wall'])} segments)")
    print(f"  ops_per_s     {metrics['ops_per_s']:.6g} 1/s ({plain[0]['ops']} ops per sample)")
    print(f"  peak_rss_mb   median {metrics['peak_rss_mb']:.6g} MB")
    print(f"  fail_ratio    {fail_ratio:.6g} ({failed} of {attempted})")
    print(f"  abstain_ratio {abstain_ratio:.6g} ({abstained} of {attempted})")
    for line in errors[:10]:
        print(f"  error: {line}")

    if args.trace:
        layer = layer_metrics(args.workload, traced, plain)
        layer["run.fail_ratio"] = (fail_ratio, "ratio")
        layer["run.abstain_ratio"] = (abstain_ratio, "ratio")
        for miss in prediction_misses(args.workload, traced[0]["trace"]["stats"]):
            print(f"  prediction miss: {miss}")
        out = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        out = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": out}))
    return 0


def selftest() -> int:
    """The gates can fail, and the trace agrees with the untraced run."""
    deadline = time.monotonic() + 600
    problems = []
    for workload in WORKLOADS:
        ops = {"verify_all": 0, "twists": 2000, "models": 500}[workload]
        base = {"workload": workload, "seed": DEFAULT_SEED, "ops": ops, "plant": False, "trace": 0}
        clean = spawn(base, deadline)
        traced = spawn(dict(base, trace=1), deadline)
        planted = spawn(dict(base, plant=True), deadline)
        misses = prediction_misses(workload, traced["trace"]["stats"])
        checks = {
            "clean run: no failed or abstained op": clean["failed"] == clean["abstained"] == 0,
            "planted wrong model: failed ops": planted["failed"] > 0,
            "traced run: same op count and digest": (traced["ops"], traced["digest"])
            == (clean["ops"], clean["digest"]),
            "traced run: every layer called where predicted, only there": not misses,
        }
        for what, ok in checks.items():
            print(f"{workload:<10} {'ok  ' if ok else 'FAIL'} {what}")
            if not ok:
                problems.append(f"{workload}: {what}")
        for miss in misses:
            print(f"{workload:<10}      prediction miss: {miss}")
        print(f"{workload:<10}      planted: {planted['failed']} of {planted['ops']} ops failed")
    print("selftest " + ("passed" if not problems else f"FAILED: {problems}"))
    return 0 if not problems else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; "
                        f"{HOLDOUT_SEED} is held out for confirming claimed gains)")
    parser.add_argument("--seconds", type=int, default=60)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "secgenus" / "__init__.py").is_file():
        print(f"no secgenus sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
