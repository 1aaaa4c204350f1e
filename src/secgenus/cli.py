"""Command-line surface.

Subcommands: ``chi``, ``genus``, ``verify``, ``semigroup``, ``classify``,
``bounds``.  Varieties come either from the built-in catalog, by name or
oracle tag (``--variety catalog:X6``, ``catalog:p1xp1xp2``), or from a JSON
file (``--variety path/to/file.json``).  Divisors are written as comma-free
signed terms over the generator names: ``2a+1b``, ``-1H``, ``-H``, ``0H``;
one that starts with ``-`` may follow its flag as a separate word
(``--divisor -H``) or after ``=`` (``--divisor=-H``).

Each ``cmd_*`` returns a ``VerificationReport``; ``main`` alone writes it
(``--format``) and maps every report to the exit status: 0 all checks
passed, 1 assertion failure, 2 input error, 3 abstention under the
``fail`` abstention policy.  A command that abstains yields a one-row
report holding the abstained check.  All
randomness is driven by a single ``--seed``; a fixed seed and
configuration reproduce reports byte for byte.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import adjoint, genus, hrr, semigroup, suites
from .classify import classify_variety
from .errors import AbstainError, InputError, SecgenusError
from .report import VerificationReport
from .variety import _INTEGER, VarietyData, catalog_build, load_variety


def resolve_variety(spec: str) -> VarietyData:
    if spec.startswith("catalog:"):
        name = spec.split(":", 1)[1]
        catalog = suites.get_catalog()
        if name in catalog:
            return catalog[name]
        try:
            return catalog_build(name)
        except InputError as exc:
            raise InputError(f"unknown catalog entry {name!r}: {exc}; have {sorted(catalog)}")
    return load_variety(spec)


def cmd_chi(args) -> VerificationReport:
    v = resolve_variety(args.variety)
    d = v.divisor(args.divisor)
    report = VerificationReport(title="chi")
    inputs = {"variety": v.name, "divisor": args.divisor}
    value = hrr.chi_divisor(v, d)
    report.add(f"chi({args.divisor}) on {v.name}", True, actual=value, inputs=inputs)
    if args.expand:
        poly = hrr.chi_multi(v, [d])
        coeffs = [int(poly.coefficient((p,))) for p in range(v.dim + 1)]
        report.add(f"binomial coefficients of chi(t({args.divisor}))", True, actual=coeffs)
        report.annotations.append(json.dumps(poly.to_json_dict(), sort_keys=True))
    return report


def cmd_genus(args) -> VerificationReport:
    v = resolve_variety(args.variety)
    bundles = [v.divisor(text) for text in args.bundle or []]
    report = VerificationReport(title="genus")
    chi_h = genus.chi_H_i(v, args.index, bundles)
    value = genus.genus_from_chi_H(v, args.index, chi_h)
    inputs = {"variety": v.name, "i": args.index, "bundles": ",".join(args.bundle or [])}
    report.add(f"g_{args.index} on {v.name}", True, actual=value, inputs=inputs)
    report.add(f"chi_{args.index}^H on {v.name}", True, actual=chi_h, inputs=inputs)
    return report


def cmd_verify(args) -> VerificationReport:
    names = list(suites.SUITE_NAMES) if args.suite == "all" else [args.suite]
    return suites.run_suites(names, draws=args.draws, seed=args.seed, m_max=args.m_max)


def cmd_semigroup(args) -> VerificationReport:
    tokens = args.set.split(",")
    if not all(_INTEGER.fullmatch(tok) for tok in tokens):
        raise InputError(f"--set needs comma-separated integers, got {args.set!r}")
    generators = [int(tok) for tok in tokens]
    report = VerificationReport(title="semigroup")
    inputs = {"set": args.set}
    closed = semigroup.closure(generators, args.bound)
    report.add("closure members", True, actual=list(closed.members), inputs=inputs)
    least = closed.members[0] if closed.members else "none"
    report.add("minimum element", True, actual=least, inputs=inputs)
    if args.threshold:
        threshold = semigroup.guaranteed_threshold(generators)
        report.add(
            "guaranteed threshold (all m beyond are members)",
            True,
            actual="none" if threshold is None else threshold,
            inputs=inputs,
        )
    if args.coin is not None:
        if len(generators) != 2:
            raise InputError(f"--coin needs two generators p,q in --set, got {args.set!r}")
        p, q = generators
        i, j = semigroup.coin_solve(p, q, args.coin)
        name = f"coin solution {p}*i + {q}*j = {args.coin}"
        report.add(name, True, actual=f"i={i} j={j}", inputs=inputs)
    return report


def cmd_classify(args) -> VerificationReport:
    v = resolve_variety(args.variety)
    ell = v.divisor(args.polarization)
    label = classify_variety(v, ell)
    report = VerificationReport(title="classify")
    report.add(
        f"{v.name} with L = {args.polarization}",
        True,
        actual=label.to_string(),
        inputs={"variety": v.name, "L": args.polarization},
        note=f"group={label.group} certainty={label.certainty}"
        + (f" th2={label.th2}" if label.th2 else ""),
    )
    return report


def cmd_bounds(args) -> VerificationReport:
    v = resolve_variety(args.variety)
    return adjoint.nonvanishing_report(v, v.divisor(args.polarization), args.m_max)


def _add_global_flags(parser: argparse.ArgumentParser, fmt: str, abstain: str) -> None:
    parser.add_argument("--format", choices=("table", "json", "csv"), default=fmt)
    parser.add_argument(
        "--abstain",
        choices=("fail", "warn"),
        default=abstain,
        help="whether abstained checks fail the run (exit 3) or only warn",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="secgenus",
        description="Exact sectional-genus and adjoint-bundle computations "
        "over numerical variety models.",
    )
    _add_global_flags(parser, "table", "warn")
    # The same flags after the subcommand; a suppressed default never
    # overwrites a value given before it.
    common = argparse.ArgumentParser(add_help=False)
    _add_global_flags(common, argparse.SUPPRESS, argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)

    p_chi = sub.add_parser("chi", help="Euler characteristic of a divisor class", parents=[common])
    p_chi.add_argument("--variety", required=True)
    p_chi.add_argument("--divisor", required=True)
    p_chi.add_argument("--expand", action="store_true", help="binomial coefficients of chi(tD)")
    p_chi.set_defaults(func=cmd_chi)

    p_gen = sub.add_parser("genus", help="sectional geometric genus g_i", parents=[common])
    p_gen.add_argument("--variety", required=True)
    p_gen.add_argument("-i", dest="index", type=int, required=True)
    p_gen.add_argument("-L", dest="bundle", action="append", help="repeat once per bundle")
    p_gen.set_defaults(func=cmd_genus)

    p_ver = sub.add_parser("verify", help="run a verification suite", parents=[common])
    p_ver.add_argument("--suite", default="all", choices=suites.SUITE_NAMES + ("all",))
    p_ver.add_argument("--seed", type=int)
    p_ver.add_argument("--draws", type=int, help="draw count of every suite that draws")
    p_ver.add_argument("--m-max", type=int)
    p_ver.set_defaults(func=cmd_verify)

    p_semi = sub.add_parser("semigroup", help="numerical semigroup utilities", parents=[common])
    p_semi.add_argument("--set", required=True, help="comma-separated generators, e.g. 4,5")
    p_semi.add_argument("--bound", type=int, default=60)
    p_semi.add_argument("--threshold", action="store_true")
    p_semi.add_argument("--coin", type=int, default=None, help="solve p*i + q*j = value")
    p_semi.set_defaults(func=cmd_semigroup)

    p_cls = sub.add_parser("classify", help="adjunction classification label", parents=[common])
    p_cls.add_argument("--variety", required=True)
    p_cls.add_argument("--L", dest="polarization", required=True)
    p_cls.set_defaults(func=cmd_classify)

    p_bnd = sub.add_parser("bounds", help="non-vanishing bound report", parents=[common])
    p_bnd.add_argument("--variety", required=True)
    p_bnd.add_argument("--L", dest="polarization", required=True)
    p_bnd.add_argument("--m-max", type=int, default=6)
    p_bnd.set_defaults(func=cmd_bounds)
    return parser


_DIVISOR_FLAGS = ("--divisor", "-L", "--L")  # a divisor such as -1H or -H starts with "-"
_SHORT_FLAGS = ("-h", "-i", "-L")  # the parser's own single-dash flags, never a divisor


def _attach_negative_divisors(argv: list[str]) -> list[str]:
    """``--divisor -H`` as ``--divisor=-H``: argparse reads a lone -H or -1H as an option.

    A value after a divisor flag joins it when it starts with one ``-`` and a digit or
    letter and is not one of ``_SHORT_FLAGS``, so ``-L -i 1`` still lacks its value.
    """
    out: list[str] = []
    for token in argv:
        divisor = re.match(r"-[0-9A-Za-z]", token) and token not in _SHORT_FLAGS
        if out and out[-1] in _DIVISOR_FLAGS and divisor:
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def main(argv: list[str] | None = None) -> int:
    """Run one command, write its report to stdout and map the report to the exit status."""
    parser = build_parser()
    args = parser.parse_args(_attach_negative_divisors(sys.argv[1:] if argv is None else argv))
    abstained = None
    try:
        report = args.func(args)
    except InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except AbstainError as exc:
        abstained = exc
        report = VerificationReport(title=args.command)
        report.add(f"{args.command}: {exc}", None, note=str(exc))
    except SecgenusError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.format == "json":
        sys.stdout.write(report.to_json() + "\n")
    else:
        sys.stdout.write(report.to_csv() if args.format == "csv" else report.to_table())
    if abstained is not None:
        why = "abstained" if args.abstain == "fail" else "warning (abstained)"
        print(f"{why}: {abstained}", file=sys.stderr)
    if not report.passed:
        return 1
    return 3 if report.abstentions and args.abstain == "fail" else 0


if __name__ == "__main__":
    sys.exit(main())
