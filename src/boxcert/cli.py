"""boxcert command line: validation, CHSH, twirling, anti-robustness,
hyperplane checks, broadcast certificates, and certificate re-verification.

Exit codes: 0 = check passed / verdict as expected, 1 = property violated
or inconclusive, 2 = usage or input error.  ``main`` turns every
``BoxError`` and ``OSError`` a verb raises into one ``error:`` line and
exit 2; any other exception is a fault and propagates.  All JSON output is
deterministic (sorted keys, no timestamps) so identical inputs and seeds
produce byte-identical files.
"""

from __future__ import annotations

import argparse
import itertools
import sys
from fractions import Fraction
from functools import cache

from .box import BoxError, is_fully_ns, parse_bits
from .boxio import box_to_dict, load_box, save_box
from .broadcast import broadcast_scan, classify_row
from .certificates import (
    antirobustness_certificate,
    halfspace_certificate,
    hyperplane_certificate,
    load_certificate,
    save_certificate,
    scan_certificate,
    verify_certificate,
)
from .chsh import beta, beta_table
from .polytope import (
    anti_robustness,
    halfspace_body_equality_check,
    hyperplane_locality_check,
)
from .rational import format_rational, format_rational_short, parse_rational
from .twirl import line_decomposition, twirl


def _parse_bits(text: str, width: int) -> tuple[int, ...]:
    try:
        return parse_bits(text, width)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


MAX_GRID_POINTS = 10_000  # each scan row solves an LP; larger grids exit 2 before any is built
MAX_SAMPLES = 10_000  # verify-cert replays every sample; more exit 2 at parse time


def _parse_count(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a count, got {text!r}") from exc
    if not 0 <= value <= MAX_SAMPLES:
        raise argparse.ArgumentTypeError(f"expected a count in [0, {MAX_SAMPLES}], got {value}")
    return value


def _parse_seed(text: str) -> int:
    # random.Random seeds by absolute value, so a negative seed would repeat a positive one
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a seed, got {text!r}") from exc
    if value < 0:
        raise argparse.ArgumentTypeError(f"expected a nonnegative seed, got {value}")
    return value


def _parse_grid(text: str) -> list[Fraction]:
    try:
        start_s, end_s, step_s = text.split(":")
        start, end, step = (
            parse_rational(start_s),
            parse_rational(end_s),
            parse_rational(step_s),
        )
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}: {exc}") from exc
    if step <= 0 or end < start:
        raise argparse.ArgumentTypeError(f"bad grid {text!r}")
    count = (end - start) // step + 1
    if count > MAX_GRID_POINTS:
        raise argparse.ArgumentTypeError(
            f"grid {text!r} has {count} points, more than {MAX_GRID_POINTS}"
        )
    return [start + k * step for k in range(count)]


def _write_json(path: str | None, payload) -> None:
    if path:
        save_certificate(payload, path)


# ---------------------------------------------------------------------------
# Verbs.
# ---------------------------------------------------------------------------


def cmd_validate(args) -> int:
    box = load_box(args.box)
    report = is_fully_ns(box)
    print(
        f"box: {box.party_count} parties, inputs {list(box.input_arity)}, "
        f"outputs {list(box.output_arity)}"
    )
    print(f"fully non-signalling: {'yes' if report.fully_ns else 'no'}")
    for violation in report.violations[:8]:
        print(
            f"  violation in cut {violation.cut} ({violation.direction}): "
            f"inputs {violation.inputs}, discrepancy {format_rational_short(violation.discrepancy)}"
        )
    payload = {
        "kind": "validation",
        "box": box_to_dict(box),
        "fully_ns": report.fully_ns,
        "violation_count": len(report.violations),
    }
    _write_json(args.json, payload)
    return 0 if report.fully_ns else 1


def cmd_beta(args) -> int:
    box = load_box(args.box)
    if args.rst is not None:
        value = beta(box, *args.rst)
        print(format_rational_short(value))
        payload = {
            "kind": "beta",
            "box": box_to_dict(box),
            "rst": "".join(map(str, args.rst)),
            "value": format_rational(value),
        }
    else:
        values, local = beta_table(box)
        for v in values:
            print(f"beta_{v.r}{v.s}{v.t} = {format_rational_short(v.value)}")
        print(f"all within [-2, 2]: {'yes' if local else 'no'}")
        payload = {
            "kind": "beta",
            "box": box_to_dict(box),
            "values": {
                f"{v.r}{v.s}{v.t}": format_rational(v.value) for v in values
            },
            "local_flag": local,
        }
    _write_json(args.json, payload)
    return 0


def cmd_twirl(args) -> int:
    box = load_box(args.box)
    r, s = args.rs
    image = twirl(box, r, s)
    p = line_decomposition(image, r, s)
    print(f"line weight p = {format_rational_short(p)}")
    if args.json:
        save_box(image, args.json)
    return 0


def cmd_antirobustness(args) -> int:
    box = load_box(args.box)
    result = anti_robustness(box)
    print(format_rational_short(result.value))
    _write_json(args.json, antirobustness_certificate(box, result))
    return 0


def cmd_hyperplane_check(args) -> int:
    apexes = [args.rst] if args.rst else list(itertools.product((0, 1), repeat=3))
    certificates = []
    all_pass = True
    for r, s, t in apexes:
        report = hyperplane_locality_check(r, s, t)
        status = "pass" if report.all_pass else "FAIL"
        print(f"apex {r}{s}{t}: {len(report.checks)} ray points, {status}")
        all_pass &= report.all_pass
        certificates.append(hyperplane_certificate(report))
        if args.samples:
            half = halfspace_body_equality_check(
                r, s, t, samples=args.samples, seed=args.seed
            )
            status = "pass" if half.all_pass else "FAIL"
            print(
                f"apex {r}{s}{t}: {2 * half.samples} sampled hull checks, {status}"
            )
            all_pass &= half.all_pass
            certificates.append(halfspace_certificate(half))
    _write_json(
        args.json, certificates if len(certificates) > 1 else certificates[0]
    )
    return 0 if all_pass else 1


def _broadcast_rows(alphas, args) -> int:
    """Print one line per alpha, write the scan certificate, and return the exit code."""
    report = broadcast_scan(alphas, include_full=args.full)
    ok = True
    for row in report.rows:
        verdict = "feasible" if row.projection.feasible else "infeasible"
        line = (
            f"alpha = {format_rational_short(row.alpha)}: projection {verdict}, "
            f"anti-robustness = {format_rational_short(row.anti_robustness)}"
        )
        full_feasible = None if row.full is None else row.full.feasible
        if row.full is not None:
            line += f", full oracle {'feasible' if row.full.feasible else 'infeasible'}"
        status = classify_row(row.alpha, row.projection.feasible, full_feasible)
        if not status.certified:
            line += f"  [{status.note}]"
        print(line)
        ok &= status.certified
    _write_json(args.json, scan_certificate(report))
    return 0 if ok else 1


def cmd_broadcast_check(args) -> int:
    return _broadcast_rows([args.alpha], args)


def cmd_scan(args) -> int:
    return _broadcast_rows(args.alpha_grid, args)


def cmd_verify_cert(args) -> int:
    data = load_certificate(args.certificate)
    items = data if isinstance(data, list) else [data]
    if not items:
        print("no certificates in file")
        return 1
    all_ok = True
    for i, item in enumerate(items):
        ok, errors = verify_certificate(item)
        label = item.get("kind", "?") if isinstance(item, dict) else "?"
        print(f"certificate {i} ({label}): {'verified' if ok else 'FAILED'}")
        for message in errors:
            print(f"  {message}")
        all_ok &= ok
    return 0 if all_ok else 1


# ---------------------------------------------------------------------------
# Parser.
# ---------------------------------------------------------------------------


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="boxcert",
        description="Exact certification toolkit for non-signalling boxes",
    )
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate", help="validate a box file and check full NS")
    p.add_argument("box")
    p.add_argument("--json", help="write a JSON report")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("beta", help="CHSH quantities of a 2x2 box")
    p.add_argument("box")
    p.add_argument("--rst", type=lambda v: _parse_bits(v, 3), help="3 bits, e.g. 000")
    p.add_argument("--json")
    p.set_defaults(func=cmd_beta)

    p = sub.add_parser("twirl", help="apply the twirl channel tau_rs")
    p.add_argument("box")
    p.add_argument(
        "--rs", type=lambda v: _parse_bits(v, 2), required=True, help="2 bits, e.g. 00"
    )
    p.add_argument("--json", help="write the twirled box as a box file")
    p.set_defaults(func=cmd_twirl)

    p = sub.add_parser("antirobustness", help="anti-robustness of a fully-NS box")
    p.add_argument("box")
    p.add_argument("--json", help="write the certificate")
    p.set_defaults(func=cmd_antirobustness)

    p = sub.add_parser(
        "hyperplane-check", help="ray-point locality and sampled hull equality"
    )
    p.add_argument("--rst", type=lambda v: _parse_bits(v, 3), help="apex bits; default all 8")
    p.add_argument(
        "--samples", type=_parse_count, default=0, help="sampled hull checks per side"
    )
    p.add_argument("--seed", type=_parse_seed, default=0, help="a nonnegative integer")
    p.add_argument("--json")
    p.set_defaults(func=cmd_hyperplane_check)

    p = sub.add_parser("broadcast-check", help="broadcast feasibility at one alpha")
    p.add_argument("--alpha", type=parse_rational, required=True)
    p.add_argument("--full", action="store_true", help="also run the 4-party oracle")
    p.add_argument("--json")
    p.set_defaults(func=cmd_broadcast_check)

    p = sub.add_parser("scan", help="broadcast feasibility over an alpha grid")
    p.add_argument(
        "--alpha-grid",
        type=_parse_grid,
        required=True,
        metavar="START:END:STEP",
        help="rational grid, e.g. 3/4:1:1/16",
    )
    p.add_argument("--full", action="store_true")
    p.add_argument("--json")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("verify-cert", help="re-verify an emitted certificate")
    p.add_argument("certificate")
    p.set_defaults(func=cmd_verify_cert)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BoxError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
