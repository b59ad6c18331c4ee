"""Command-line interface.

Subcommands wrap the library one-to-one: formula tables (hf, gap),
verification runs (verify, verify-range), liaison difference tables,
monomial search, the missing-sextic demonstration, and Waring
decomposition (decompose, waring-demo).  Output is a human table by
default or JSON with --format json; exit status is 0 for success or PASS,
1 for failed verdicts and computational errors, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass

from .formulas import (
    CaseParams,
    RangeError,
    ci_table,
    generic_table,
    lex_lower_bound_table,
    liaison_delta,
    predicted_gap,
)
from .grading import CapacityError, first_difference
from .modlinalg import PrimeField
from .pointideals import GenericityError
from .verify import (
    missing_sextic_demo,
    search_monomial_ideals,
    verify_case,
    verify_grid,
)
from .version import __version__
from .waring import (
    WaringError,
    decompose,
    form_from_dict,
    form_from_points,
    random_unit_points,
    recovery_error,
    result_to_dict,
)

DEFAULT_PRIME = 2147483647

_COMPUTATION_FAILURES = (
    RangeError,
    CapacityError,
    GenericityError,
    WaringError,
    ValueError,
    OSError,
)


@dataclass(frozen=True)
class RunConfig:
    """Validated arguments for a single invocation."""

    command: str
    n: int | None = None
    r: int | None = None
    r_from: int | None = None
    r_to: int | None = None
    d: int | None = None
    D: int | None = None
    prime: int = DEFAULT_PRIME
    seed: int = 0
    trials: int = 1
    e_max: int | None = None
    tol: float = 1e-8
    workers: int = 1
    out: str | None = None
    format: str = "table"
    no_timing: bool = False
    form_path: str | None = None


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise SystemExit(f"error: environment variable {name}={raw!r} is not an integer")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chopshop",
        description="Chopped ideals of point configurations: formulas, "
        "verification certificates, monomial search, and Waring decomposition.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, timing=True):
        p.add_argument("--format", choices=("table", "json"), default="table")
        if timing:
            p.add_argument("--no-timing", action="store_true")

    p = sub.add_parser("hf", help="generic, expected-chopped, and lex-floor tables")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    add_common(p, timing=False)

    p = sub.add_parser("gap", help="predicted saturation gap and proven ceiling")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    add_common(p, timing=False)

    p = sub.add_parser("verify", help="run one case and emit a certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--e-max", type=int, default=None)
    p.add_argument("--out", default=None)
    add_common(p)

    p = sub.add_parser("verify-range", help="verify every admissible r in a range")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-from", type=int, required=True)
    p.add_argument("--r-to", type=int, required=True)
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--e-max", type=int, default=None)
    p.add_argument("--workers", type=int, default=None)
    p.add_argument("--out", default=None)
    add_common(p)

    p = sub.add_parser("liaison", help="difference tables inside a complete intersection")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True, help="degree of each of the n cutting forms")
    p.add_argument("--r", type=int, required=True)
    add_common(p, timing=False)

    p = sub.add_parser("decompose", help="decompose a form file into powers of linear forms")
    p.add_argument("form", help="path to a form JSON file")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None)
    add_common(p)

    p = sub.add_parser("waring-demo", help="round-trip a random rank-r form")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--seed", type=int, default=None)
    add_common(p)

    p = sub.add_parser("search-monomial", help="monomial certificate search")
    p.add_argument("--r", type=int, required=True)
    add_common(p)

    p = sub.add_parser("sextic-demo", help="the sextic missing from the quintic-generated ideal")
    p.add_argument("--prime", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    add_common(p)

    return parser


def _validated(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    prime = getattr(args, "prime", None)
    if prime is None:
        prime = _env_int("CHOPSHOP_PRIME", DEFAULT_PRIME)
    seed = getattr(args, "seed", None)
    if seed is None:
        seed = _env_int("CHOPSHOP_SEED", 0)
    workers = getattr(args, "workers", None)
    if workers is None:
        workers = os.cpu_count() or 1

    config = RunConfig(
        command=args.command,
        n=getattr(args, "n", None),
        r=getattr(args, "r", None),
        r_from=getattr(args, "r_from", None),
        r_to=getattr(args, "r_to", None),
        d=getattr(args, "d", None),
        D=getattr(args, "D", None),
        prime=prime,
        seed=seed,
        trials=getattr(args, "trials", 1),
        e_max=getattr(args, "e_max", None),
        tol=getattr(args, "tol", 1e-8),
        workers=workers,
        out=getattr(args, "out", None),
        format=getattr(args, "format", "table"),
        no_timing=getattr(args, "no_timing", False),
        form_path=getattr(args, "form", None),
    )

    def check(ok: bool, message: str) -> None:
        if not ok:
            parser.error(message)

    for name in ("n", "r", "r_from", "r_to", "d", "D", "trials", "workers"):
        value = getattr(config, name)
        if value is not None:
            check(value >= 1, f"--{name.replace('_', '-')} must be >= 1, got {value}")
    if config.r_from is not None and config.r_to is not None:
        check(config.r_from <= config.r_to, "--r-from must not exceed --r-to")
    if config.e_max is not None:
        check(config.e_max >= 1, f"--e-max must be >= 1, got {config.e_max}")
    check(0 < config.tol < 1, f"--tol must lie in (0, 1), got {config.tol}")
    if config.command in ("verify", "verify-range", "sextic-demo"):
        try:
            PrimeField(config.prime)
        except ValueError as exc:
            parser.error(str(exc))
    return config


def _emit(config: RunConfig, payload: dict, table_lines: list[str]) -> None:
    if config.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in table_lines:
            print(line)


def _write_out(config: RunConfig, payload: dict) -> None:
    if config.out:
        with open(config.out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")


def _strip_timing_cert(data: dict) -> dict:
    data = dict(data)
    data["wall_ms"] = 0
    return data


def _aligned_rows(header: list[str], rows: list[tuple[str, list[str]]]) -> list[str]:
    label_width = max(len(label) for label, _ in rows)
    widths = [
        max(len(header[i]), max(len(row[i]) for _, row in rows))
        for i in range(len(header))
    ]
    lines = [
        " ".join(
            [" " * label_width]
            + [header[i].rjust(widths[i]) for i in range(len(header))]
        )
    ]
    for label, row in rows:
        lines.append(
            " ".join(
                [label.ljust(label_width)]
                + [row[i].rjust(widths[i]) for i in range(len(header))]
            )
        )
    return lines


def _ceiling(bound: int) -> int | None:
    """The proven gap ceiling (n-1)d - (n+1) to report, or None below 1.

    That formula bounds the gap in the hard regime; every gap is at least
    1, so a value below 1 is no ceiling at all for the small cases where
    it occurs ((2,7), (3,5) and (3,6)).
    """
    return bound if bound >= 1 else None


def _cmd_hf(config: RunConfig) -> int:
    params = CaseParams(config.n, config.r)
    prediction = predicted_gap(params)
    ceiling = _ceiling(prediction.bound)
    top = params.d + prediction.gap
    degrees = list(range(top + 1))
    generic = generic_table(params, top)
    lex_floor = lex_lower_bound_table(params, top)
    rows = {
        "generic": [generic.value_at(t) for t in degrees],
        "chopped": [prediction.table.value_at(t) for t in degrees],
        "lex floor": [lex_floor.value_at(t) for t in degrees],
    }
    payload = {
        "n": params.n,
        "r": params.r,
        "d": params.d,
        "predicted_gap": prediction.gap,
        "gap_upper_bound": ceiling,
        "degrees": degrees,
        "generic": rows["generic"],
        "chopped": rows["chopped"],
        "lex_floor": rows["lex floor"],
    }
    lines = _aligned_rows(
        [str(t) for t in degrees],
        [(label, [str(v) for v in values]) for label, values in rows.items()],
    )
    lines.append(
        f"d={params.d}  predicted gap={prediction.gap}  "
        + ("no proven ceiling" if ceiling is None else f"upper bound={ceiling}")
    )
    _emit(config, payload, lines)
    return 0


def _cmd_gap(config: RunConfig) -> int:
    params = CaseParams(config.n, config.r)
    prediction = predicted_gap(params)
    ceiling = _ceiling(prediction.bound)
    payload = {
        "n": params.n,
        "r": params.r,
        "d": params.d,
        "predicted_gap": prediction.gap,
        "gap_upper_bound": ceiling,
    }
    lines = [
        f"n={params.n} r={params.r} d={params.d}",
        f"predicted gap: {prediction.gap}",
        "no proven ceiling" if ceiling is None else f"proven upper bound: {ceiling}",
    ]
    _emit(config, payload, lines)
    return 0


def _certificate_lines(data: dict) -> list[str]:
    observed = data["observed_quotient"]
    expected = data["expected_quotient"]
    top = max(len(observed), len(expected))
    degrees = list(range(top))

    def row(values):
        return [str(values[t]) if t < len(values) else "" for t in degrees]

    lines = [
        f"n={data['n']} r={data['r']} d={data['d']} prime={data['prime']} "
        f"seed={data['seed']} retries={data['retries']}"
    ]
    lines += _aligned_rows(
        [str(t) for t in degrees],
        [("observed", row(observed)), ("expected", row(expected))],
    )
    lines.append(
        f"verdict {data['verdict']}  observed gap={data['observed_gap']}  "
        f"expected gap={data['expected_gap']}"
    )
    if data["first_mismatch_degree"] is not None:
        lines.append(f"first mismatch at degree {data['first_mismatch_degree']}")
    return lines


def _cmd_verify(config: RunConfig) -> int:
    certificate = verify_case(
        config.n, config.r, PrimeField(config.prime), config.seed, config.e_max
    )
    data = certificate.to_dict()
    if config.no_timing:
        data = _strip_timing_cert(data)
    _write_out(config, data)
    _emit(config, data, _certificate_lines(data))
    return 0 if certificate.verdict == "PASS" else 1


def _cmd_verify_range(config: RunConfig) -> int:
    report = verify_grid(
        config.n,
        config.r_from,
        config.r_to,
        PrimeField(config.prime),
        config.seed,
        trials_per_case=config.trials,
        workers=config.workers,
        e_max=config.e_max,
    )
    data = report.to_dict()
    if config.no_timing:
        data["certificates"] = [
            _strip_timing_cert(c) for c in data["certificates"]
        ]
        data["summary"] = dict(data["summary"], total_wall_ms=0)
    _write_out(config, data)
    summary = data["summary"]
    lines = []
    for cert in data["certificates"]:
        lines.append(
            f"n={cert['n']} r={cert['r']:>4} seed={cert['seed']:>20} "
            f"gap={cert['observed_gap']}  {cert['verdict']}"
        )
    for skip in data["skipped"]:
        lines.append(f"n={skip['n']} r={skip['r']:>4} SKIP ({skip['reason']})")
    lines.append(
        f"pass={summary['pass']} fail={summary['fail']} skip={summary['skip']} "
        f"wall_ms={summary['total_wall_ms']}"
    )
    _emit(config, data, lines)
    return 0 if summary["fail"] == 0 else 1


def _cmd_liaison(config: RunConfig) -> int:
    params = CaseParams(config.n, config.r)
    degrees = (config.d,) * config.n
    delta_z = first_difference(generic_table(params))
    delta_ci = first_difference(ci_table(config.n, degrees))
    residual = liaison_delta(config.n, degrees, delta_z.values)
    payload = {
        "n": config.n,
        "r": config.r,
        "degrees": list(degrees),
        "delta_z": list(delta_z.values),
        "delta_ci": list(delta_ci.values),
        "delta_residual": list(residual),
    }
    top = max(len(delta_z.values), len(delta_ci.values), len(residual))

    def row(values):
        return [str(values[t]) if t < len(values) else "0" for t in range(top)]

    lines = _aligned_rows(
        [str(t) for t in range(top)],
        [
            ("delta Z", row(delta_z.values)),
            ("delta CI", row(delta_ci.values)),
            ("delta residual", row(residual)),
        ],
    )
    _emit(config, payload, lines)
    return 0


def _decomposition_payload(result, extra: dict | None = None) -> dict:
    payload = result_to_dict(result)
    if extra:
        payload.update(extra)
    return payload


def _decomposition_lines(payload: dict) -> list[str]:
    diag = payload["diagnostics"]
    lines = [
        f"residual: {payload['residual']:.3e}",
        f"catalecticant rank {diag['catalecticant_rank']}, "
        f"kernel dim {diag['kernel_dim']}, macaulay degree {diag['macaulay_degree']}",
        f"cokernel condition {diag['cokernel_condition']:.3e}, "
        f"eigen offdiag max {diag['eigen_offdiag_max']:.3e}",
    ]
    if "point_recovery" in payload:
        lines.append(
            f"point recovery {payload['point_recovery']:.3e}, "
            f"coefficient recovery {payload['coefficient_recovery']:.3e}"
        )
    return lines


def _cmd_decompose(config: RunConfig) -> int:
    with open(config.form_path, encoding="utf-8") as fh:
        form = form_from_dict(json.load(fh))
    result = decompose(form, config.r, tol=config.tol, seed=config.seed)
    payload = _decomposition_payload(result)
    _write_out(config, payload)
    _emit(config, payload, _decomposition_lines(payload))
    return 0


def _cmd_waring_demo(config: RunConfig) -> int:
    points = random_unit_points(config.n, config.r, config.seed)
    coefficients = [1.0] * config.r
    form = form_from_points(points, coefficients, config.D)
    result = decompose(form, config.r, tol=config.tol, seed=config.seed)
    point_err, coeff_err = recovery_error(
        points, coefficients, result.points, result.coefficients, config.D
    )
    payload = _decomposition_payload(
        result,
        {"point_recovery": point_err, "coefficient_recovery": coeff_err},
    )
    _emit(config, payload, _decomposition_lines(payload))
    return 0


def _cmd_search_monomial(config: RunConfig) -> int:
    found = search_monomial_ideals(config.r)
    ideals = [
        [list(gen) for gen in ideal.sorted_generators()] for ideal in found
    ]
    payload = {"r": config.r, "count": len(found), "ideals": ideals}
    lines = [f"r={config.r}: {len(found)} ideal(s)"]
    for gens in ideals:
        lines.append("  " + ", ".join(str(tuple(g)) for g in gens))
    _emit(config, payload, lines)
    return 0


def _cmd_sextic_demo(config: RunConfig) -> int:
    record = missing_sextic_demo(PrimeField(config.prime), config.seed)
    payload = dict(record, prime=config.prime, seed=config.seed)
    lines = [
        f"sextic in full degree-6 component: {record['g_in_I6']}",
        f"sextic in quintic-generated component: {record['g_in_chopped6']}",
        f"dimensions: chopped {record['chopped6_dim']}, full {record['I6_dim']}",
    ]
    _emit(config, payload, lines)
    return 0


_HANDLERS = {
    "hf": _cmd_hf,
    "gap": _cmd_gap,
    "verify": _cmd_verify,
    "verify-range": _cmd_verify_range,
    "liaison": _cmd_liaison,
    "decompose": _cmd_decompose,
    "waring-demo": _cmd_waring_demo,
    "search-monomial": _cmd_search_monomial,
    "sextic-demo": _cmd_sextic_demo,
}


def run(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    config = _validated(parser, args)
    try:
        return _HANDLERS[config.command](config)
    except _COMPUTATION_FAILURES as exc:
        if config.format == "json":
            print(
                json.dumps(
                    {"error": {"type": type(exc).__name__, "message": str(exc)}}
                )
            )
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
