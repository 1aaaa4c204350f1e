"""One timed benchmark sample, run in a fresh interpreter.

Usage (normally started by ``run.py``)::

    PYTHONPATH=src python3 bench/worker.py \
        '{"workload": "twists", "seed": 7, "ops": 8000, "trace": 0, "plant": false, "src": "src"}'

``workload`` may also be ``setup``: import and build the catalog, then stop.

The worker imports ``secgenus.cli`` and builds the shared catalog (the
set-up a CLI user pays on every run), generates its inputs, optionally
installs the tracer or plants a wrong model, runs the workload's ops
with a wall and CPU clock read at the end of each (``clock_marks``),
then compares every output with the closed-form reference.  It prints
one JSON object on its last stdout line.
"""

import json
import sys
import time


def main() -> int:
    cfg = json.loads(sys.argv[1])
    t0 = time.monotonic()
    import importlib

    importlib.import_module("secgenus.cli")
    t1 = time.monotonic()
    catalog = sys.modules["secgenus.suites"].get_catalog()
    t_ready = time.monotonic()

    from pathlib import Path

    package = Path(sys.modules["secgenus"].__file__).resolve()
    if Path(cfg["src"]).resolve() not in package.parents:
        print(f"secgenus imported from {package}, not from {cfg['src']}", file=sys.stderr)
        return 2
    out = {"t_ready": t_ready, "cli_import_s": t1 - t0, "catalog_s": t_ready - t1}
    if cfg["workload"] == "setup":
        print(json.dumps(out))
        return 0

    import hashlib

    import workloads

    workload = cfg["workload"]
    seed = cfg["seed"]
    if workload == "twists":
        inputs = workloads.twist_inputs(seed, cfg["ops"])
    elif workload == "models":
        inputs = workloads.model_inputs(seed, cfg["ops"], plant=cfg["plant"])
    else:
        inputs = ["--format", "json", "verify", "--suite", "all", "--seed", str(seed)]
    if cfg["plant"] and workload != "models":
        entry = catalog[workloads.PLANT_ENTRY]
        key = next(iter(entry.c2_pairings))
        entry.c2_pairings[key] += 24

    tracer = None
    if cfg["trace"]:
        from tracer import Tracer

        tracer = Tracer(trace_hooks())
        tracer.count_instances(sys.modules["secgenus.variety"].DivisorClass, "variety.DivisorClass")
        tracer.install("secgenus")

    genus_cache = getattr(sys.modules["secgenus.genus"], "_chi_all_ones", None)
    cache_info = getattr(genus_cache, "cache_info", None)
    if cache_info is not None and cache_info().currsize:
        print("genus cache is not empty when timing starts", file=sys.stderr)
        return 2

    run = {"verify_all": run_verify, "twists": run_twists, "models": run_models}[workload]
    mark, wall_ns, cpu_ns = clock_marks()
    mark()
    outputs = run(inputs, catalog, mark)
    rss_mb = peak_rss_mb()

    check = {"verify_all": check_verify, "twists": check_twists, "models": check_models}[workload]
    verdict = check(inputs, outputs)
    out.update(verdict)
    out.update(
        wall_s=(wall_ns[-1] - wall_ns[0]) / 1e9,
        cpu_s=(cpu_ns[-1] - cpu_ns[0]) / 1e9,
        seg_wall_ns=[b - a for a, b in zip(wall_ns, wall_ns[1:])],
        seg_cpu_ns=[b - a for a, b in zip(cpu_ns, cpu_ns[1:])],
        rss_mb=rss_mb,
        digest=hashlib.sha256(
            (outputs[1] if workload == "verify_all" else repr(outputs)).encode()
        ).hexdigest(),
    )
    if cache_info is not None:
        info = cache_info()
        out["genus_cache"] = {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
    if tracer is not None:
        out["trace"] = {
            "spans": len(tracer.span_name),
            "wrapped": len(tracer.names),
            "stats": tracer.summary(),
            "extra": tracer.extra,
            "constructed": tracer.constructed,
        }
    print(json.dumps(out))
    return 0


def peak_rss_mb() -> float:
    """This process's peak resident set size.

    ``ru_maxrss`` also counts the parent's resident set at the time of
    the spawn, so the worker reads its own high-water mark (``VmHWM``)
    where Linux provides it.
    """
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def clock_marks():
    """A mark() that appends wall and CPU clock reads (ns) to the two arrays returned with it.

    The worker marks the start and a workload the end of each op (and
    ``run_verify`` more often), so the marks split a sample into
    segments.  Samples of one run do the same work in the same order, so
    segment j of every sample times the same work.
    """
    from array import array

    wall, cpu = array("q"), array("q")
    wall_clock, cpu_clock = time.perf_counter_ns, time.process_time_ns

    def mark():
        wall.append(wall_clock())
        cpu.append(cpu_clock())

    return mark, wall, cpu


def _oracle_points(args, kwargs, result):
    arity = args[1] if len(args) > 1 else kwargs["arity"]
    degree = args[2] if len(args) > 2 else kwargs["max_degree"]
    return (degree + 1) ** arity


def trace_hooks() -> dict:
    """Per span name: a count summed over calls from (args, kwargs, result)."""
    from run import SUITES

    hooks = {
        "binpoly.coefficients_from_oracle": _oracle_points,
        "hrr.h0_certified": lambda args, kwargs, result: int(result[1] == "family-oracle"),
        "report.VerificationReport.to_json": lambda args, kwargs, result: len(result.encode()),
    }
    for name in SUITES:
        hooks[f"suites.suite_{name}"] = lambda args, kwargs, result: len(result.checks)
    return hooks


# -- workloads ---------------------------------------------------------------


def run_verify(argv, catalog, mark):
    """One CLI run; an op ends where a report records a check, the last one at exit.

    A check takes 20-100 ms, long against the host's bursts, and a run
    holds fewer than ten samples, so segments also end at every chi
    evaluation (about 40 us apart): ``hrr.chi_divisor`` is rebound in
    every secgenus module that holds it.
    """
    import contextlib
    import functools
    import io

    def marked(fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            mark()
            return fn(*args, **kwargs)

        return call

    report_cls = sys.modules["secgenus.report"].VerificationReport
    report_cls.add = marked(report_cls.add)
    chi = getattr(sys.modules["secgenus.hrr"], "chi_divisor", None)
    if chi is not None:  # without it the checks alone are the segments
        chi_marked = marked(chi)
        for name, module in list(sys.modules.items()):
            if name == "secgenus" or name.startswith("secgenus."):
                for attr, value in list(vars(module).items()):
                    if value is chi:
                        setattr(module, attr, chi_marked)
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = sys.modules["secgenus.cli"].main(argv)
    mark()
    return code, buffer.getvalue()


def run_ops(inputs, op, mark):
    """Run op(*item) for each input; an abstention or exception is recorded, not raised."""
    abstain = sys.modules["secgenus.errors"].AbstainError
    outputs = []
    for item in inputs:
        try:
            outputs.append(op(*item))
        except abstain as exc:
            outputs.append(("abstain", str(exc)))
        except Exception as exc:  # recorded as a failed op, the run goes on
            outputs.append(("error", repr(exc)))
        mark()
    return outputs


def run_twists(inputs, catalog, mark):
    variety = sys.modules["secgenus.variety"]
    hrr = sys.modules["secgenus.hrr"]
    adjoint = sys.modules["secgenus.adjoint"]

    def op(name, coeffs, diff):
        v = catalog[name]
        d = variety.DivisorClass(coeffs)
        jump = None
        if diff is not None:
            bigs, nef = diff
            req = adjoint.DifferenceRequest.build(
                v, [variety.DivisorClass(b) for b in bigs], variety.DivisorClass(nef)
            )
            jump = adjoint.difference_lhs(req)
        chi = hrr.chi_divisor(v, d)
        dual = hrr.chi_divisor(v, v.canonical - d)
        return (chi, dual, hrr.h0_certified(v, d)[0], jump)

    return run_ops(inputs, op, mark)


def run_models(inputs, catalog, mark):
    variety = sys.modules["secgenus.variety"]
    hrr = sys.modules["secgenus.hrr"]
    genus = sys.modules["secgenus.genus"]
    classify = sys.modules["secgenus.classify"]

    def op(_fam, text, twists):
        v = variety.variety_from_json(json.loads(text))
        valid = variety.validate(v).passed
        ell = v.polarization
        label = classify.classify_variety(v, ell).to_string()
        values = tuple((hrr.chi_divisor(v, t * ell), hrr.h0_certified(v, t * ell)[0]) for t in twists)
        g1 = genus.g1_closed(v, ell, ell, ell) if v.dim == 4 else None
        return (valid, label, values, g1)

    return run_ops(inputs, op, mark)


# -- checks against the closed-form reference ---------------------------------


def _tally(rows) -> dict:
    """rows: (status, message) with status 'ok', 'abstain' or 'fail'."""
    failed = [msg for status, msg in rows if status == "fail"]
    return {
        "ops": len(rows),
        "failed": len(failed),
        "abstained": sum(1 for status, _ in rows if status == "abstain"),
        "errors": failed[:5],
    }


def check_ops(inputs, outputs, want) -> dict:
    """Compare each op's output with want(*item), the closed-form reference."""
    rows = []
    for item, got in zip(inputs, outputs):
        if got[0] == "abstain":
            rows.append(("abstain", f"{item[:2]}: {got[1]}"))
        elif got[0] == "error":
            rows.append(("fail", f"{item[:2]}: {got[1]}"))
        elif got != want(*item):
            rows.append(("fail", f"{item[:2]}: got {got}, reference {want(*item)}"))
        else:
            rows.append(("ok", ""))
    return _tally(rows)


def check_twists(inputs, outputs) -> dict:
    import reference as ref
    from workloads import CATALOG

    def want(name, d, diff):
        fam = CATALOG[name]
        dual = tuple(k - c for k, c in zip(ref.canonical(fam), d))
        jump = None if diff is None else ref.difference_lhs(fam, list(diff[0]), diff[1])
        return (ref.chi(fam, d), ref.chi(fam, dual), ref.h0(fam, d), jump)

    return check_ops(inputs, outputs, want)


def check_models(inputs, outputs) -> dict:
    import reference as ref

    def want(fam, _text, twists):
        ones = (1,) * ref.n_gens(fam)
        values = tuple(
            (ref.chi(fam, tuple(t * c for c in ones)), ref.h0(fam, tuple(t * c for c in ones)))
            for t in twists
        )
        g1 = ref.g_equal(fam, 1, ones) if ref.dim(fam) == 4 else None
        return (True, ref.label(fam), values, g1)

    return check_ops(inputs, outputs, want)


def check_verify(argv, outputs) -> dict:
    """Every report row must pass; rows with catalog values must match the reference."""
    import re

    import reference as ref
    from workloads import CATALOG

    code, text = outputs
    try:
        report = json.loads(text)
        checks = report["checks"]
    except (ValueError, KeyError, TypeError) as exc:
        return {"ops": 1, "failed": 1, "abstained": 0, "errors": [f"no JSON report: {exc}"]}

    def cls(s: str) -> tuple[int, ...]:
        return tuple(int(c) for c, _ in re.findall(r"([+-]?\d+)([A-Za-z]\w*)", s))

    def add(a, b):
        return tuple(x + y for x, y in zip(a, b))

    def scale(t, a):
        return tuple(t * x for x in a)

    categories = dict.fromkeys(
        ("duality", "equal_bundle", "difference", "g0", "jumps", "h0_bound"), 0
    )
    rows = []
    for row in checks:
        name, inputs = row["name"], row.get("inputs", {})
        if row["pass"] is None:
            rows.append(("abstain", name))
            continue
        if row["pass"] is not True:
            rows.append(("fail", f"{name}: check failed"))
            continue
        want, got = None, (row["expected"], row["actual"])
        if m := re.fullmatch(r"(\S+) duality draw \d+", name):
            fam = CATALOG[m[1]]
            d = cls(inputs["D"])
            dual = add(ref.canonical(fam), scale(-1, d))
            want = (str((-1) ** ref.dim(fam) * ref.chi(fam, d)), str(ref.chi(fam, dual)))
            category = "duality"
        elif m := re.fullmatch(r"(\S+) equal-bundle chi_(\d)\^H", name):
            fam = CATALOG[m[1]]
            value = str(ref.chi_h_equal(fam, int(m[2]), (1,) * ref.n_gens(fam)))
            want, category = (value, value), "equal_bundle"
        elif re.fullmatch(r"\S+ draw \d+ \(m=\d+\)", name) and "nef" in inputs:
            fam = CATALOG[inputs["variety"]]
            bigs = [cls(b) for b in inputs["big"].split(",")]
            value = str(ref.difference_lhs(fam, bigs, cls(inputs["nef"])))
            want, category = (value, value), "difference"
        elif re.fullmatch(r"draw \d+: \S+", name) and "bundles" in inputs:
            fam = CATALOG[inputs["variety"]]
            value = str(ref.intersection(fam, [cls(b) for b in inputs["bundles"].split(",")]))
            want, category = (value, value), "g0"
        elif m := re.fullmatch(r"(\S+) m=(\d+)", name):
            fam = CATALOG[m[1]]
            kl = add(ref.canonical(fam), cls(inputs["L"]))
            t = int(m[2])
            value = str(ref.h0(fam, scale(t, kl)) - ref.h0(fam, scale(t - 1, kl)))
            want, category = (value, value), "jumps"
        elif m := re.fullmatch(r"h0-bound\[m=(\d+)\]", name):
            fam = CATALOG[inputs["variety"]]
            kl = add(ref.canonical(fam), cls(inputs["L"]))
            want = (row["expected"], str(ref.h0(fam, scale(int(m[1]), kl))))
            category = "h0_bound"
        if want is None:
            rows.append(("ok", ""))
        elif got != want:
            rows.append(("fail", f"{name}: got {got}, reference {want}"))
        else:
            categories[category] += 1
            rows.append(("ok", ""))
    verdict = _tally(rows)
    missing = [c for c, n in categories.items() if n == 0]
    if code != 0 or missing:
        verdict["failed"] += 1
        verdict["errors"].append(f"exit code {code}; reference rows missing: {missing}")
    verdict["reference_rows"] = categories
    verdict["report_bytes"] = len(text.encode())
    return verdict


if __name__ == "__main__":
    sys.exit(main())
