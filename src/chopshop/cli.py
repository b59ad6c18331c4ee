"""Command-line interface.

Subcommands wrap the library one-to-one: formula tables (hf, gap),
verification runs (verify, verify-range), liaison difference tables,
monomial search, the missing-sextic demonstration, and Waring
decomposition (decompose, waring-demo).  Output is a human table by
default or JSON with --format json; exit status is 0 for success or PASS,
1 for failed verdicts and computational errors, 2 for usage errors, 3 for
an internal error (a failed self-check, which is a bug).

`_FLAGS` is the only place a flag is declared, with its type, default and
check; `_COMMANDS` names the flags each subcommand takes.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections.abc import Callable
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
    SelfCheckError,
    missing_sextic_demo,
    search_monomial_ideals,
    verify_case,
    verify_grid,
)
from .version import __version__
from .waring import (
    WaringError,
    decompose,
    diagnostics_to_dict,
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
    MemoryError,
)


def _at_least(low: int):
    def check(flag, value, args):
        return None if value >= low else f"{flag} must be >= {low}, got {value}"

    return check


def _not_below_r_from(flag, value, args):
    # --r-from is checked first, so it is at least 1
    return None if args.r_from <= value else "--r-from must not exceed --r-to"


def _in_open_unit_interval(flag, value, args):
    return None if 0 < value < 1 else f"{flag} must lie in (0, 1), got {value}"


def _prime(flag, value, args):
    try:
        PrimeField(value)
    except ValueError as exc:
        return f"{flag}: {exc}"
    return None


@dataclass(frozen=True)
class Flag:
    """One command-line argument, for every subcommand that takes it.

    `env` names an environment variable whose integer value, when set,
    replaces `default`; `check` returns what is wrong with a value, or None,
    naming the flag or, for a value read from `env`, the variable.
    """

    type: type = int
    default: object = None
    env: str | None = None
    required: bool = False
    choices: tuple | None = None
    help: str | None = None
    check: Callable[[str, object, argparse.Namespace], str | None] | None = None

    def add_to(self, parser: argparse.ArgumentParser, name: str) -> None:
        if self.type is bool:
            parser.add_argument(name, action="store_true")
            return
        options = {"required": self.required} if name.startswith("--") else {}
        parser.add_argument(
            name,
            type=self.type,
            default=None if self.env else self.default,
            choices=self.choices,
            help=self.help,
            **options,
        )


_FLAGS = {
    "form": Flag(str, help="path to a form JSON file"),
    "--n": Flag(required=True, check=_at_least(1)),
    "--D": Flag(required=True, check=_at_least(1)),
    "--d": Flag(
        required=True, help="degree of each of the n cutting forms", check=_at_least(1)
    ),
    "--r": Flag(required=True, check=_at_least(1)),
    "--r-from": Flag(required=True, check=_at_least(1)),
    "--r-to": Flag(required=True, check=_not_below_r_from),
    "--tol": Flag(float, 1e-8, check=_in_open_unit_interval),
    "--prime": Flag(default=DEFAULT_PRIME, env="CHOPSHOP_PRIME", check=_prime),
    "--seed": Flag(default=0, env="CHOPSHOP_SEED", check=_at_least(0)),
    "--trials": Flag(default=1, check=_at_least(1)),
    "--e-max": Flag(check=_at_least(1)),
    "--workers": Flag(default=os.cpu_count() or 1, check=_at_least(1)),
    "--out": Flag(str),
    "--format": Flag(str, "table", choices=("table", "json")),
    "--no-timing": Flag(bool),
}


_Output = tuple[int, dict, list[str]]  # exit code, JSON payload, table lines


def _without_timing(data):
    """``data`` with each wall clock (``wall_ms``, ``total_wall_ms``) set to 0,
    in the dicts it holds too; a list is walked only for its dicts."""
    if isinstance(data, list):
        return [_without_timing(v) if isinstance(v, dict) else v for v in data]
    if not isinstance(data, dict):
        return data
    return {k: 0 if k in ("wall_ms", "total_wall_ms") else _without_timing(v)
            for k, v in data.items()}


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


def _predicted(args: argparse.Namespace):
    """The case, its predicted gap, and the payload fields `hf` and `gap` share.

    The proven gap ceiling (n-1)d - (n+1) is None below 1: it bounds the
    gap in the hard regime, and every gap is at least 1, so a value below 1
    is no ceiling for the small cases where it occurs ((2,7), (3,5), (3,6)).
    """
    params = CaseParams(args.n, args.r)
    prediction = predicted_gap(params)
    payload = {
        "n": params.n,
        "r": params.r,
        "d": params.d,
        "predicted_gap": prediction.gap,
        "gap_upper_bound": prediction.bound if prediction.bound >= 1 else None,
    }
    return params, prediction, payload


def _cmd_hf(args: argparse.Namespace) -> _Output:
    params, prediction, payload = _predicted(args)
    ceiling = payload["gap_upper_bound"]
    top = params.d + prediction.gap
    degrees = list(range(top + 1))
    generic = generic_table(params)
    lex_floor = lex_lower_bound_table(params, top)
    rows = {
        "generic": [generic.value_at(t) for t in degrees],
        "chopped": [prediction.table.value_at(t) for t in degrees],
        "lex floor": [lex_floor.value_at(t) for t in degrees],
    }
    payload.update(degrees=degrees, generic=rows["generic"], chopped=rows["chopped"],
                   lex_floor=rows["lex floor"])
    lines = _aligned_rows(
        [str(t) for t in degrees],
        [(label, [str(v) for v in values]) for label, values in rows.items()],
    )
    lines.append(
        f"d={params.d}  predicted gap={prediction.gap}  "
        + ("no proven ceiling" if ceiling is None else f"upper bound={ceiling}")
    )
    return 0, payload, lines


def _cmd_gap(args: argparse.Namespace) -> _Output:
    params, prediction, payload = _predicted(args)
    ceiling = payload["gap_upper_bound"]
    lines = [
        f"n={params.n} r={params.r} d={params.d}",
        f"predicted gap: {prediction.gap}",
        "no proven ceiling" if ceiling is None else f"proven upper bound: {ceiling}",
    ]
    return 0, payload, lines


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


def _cmd_verify(args: argparse.Namespace) -> _Output:
    certificate = verify_case(
        args.n, args.r, PrimeField(args.prime), args.seed, args.e_max
    )
    data = certificate.to_dict()
    if args.no_timing:
        data = _without_timing(data)
    return (0 if certificate.verdict == "PASS" else 1), data, _certificate_lines(data)


def _cmd_verify_range(args: argparse.Namespace) -> _Output:
    report = verify_grid(
        args.n,
        args.r_from,
        args.r_to,
        PrimeField(args.prime),
        args.seed,
        trials_per_case=args.trials,
        workers=args.workers,
        e_max=args.e_max,
    )
    data = report.to_dict()
    if args.no_timing:
        data = _without_timing(data)
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
    return (0 if summary["fail"] == 0 else 1), data, lines


def _cmd_liaison(args: argparse.Namespace) -> _Output:
    params = CaseParams(args.n, args.r)
    degrees = (args.d,) * args.n
    delta_z = first_difference(generic_table(params))
    delta_ci = first_difference(ci_table(args.n, degrees))
    residual = liaison_delta(args.n, degrees, delta_z.values)
    payload = {
        "n": args.n,
        "r": args.r,
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
    return 0, payload, lines


def _gap(value: float | None) -> str:
    # an R-diagonal gap is null in the payload when it is infinite: no entry was dropped
    return "inf" if value is None else f"{value:.3e}"


def _decomposition_lines(payload: dict) -> list[str]:
    diag = payload["diagnostics"]
    top, observed = diag["macaulay_degree"], diag["numerical_quotient"]
    lines = [
        f"residual: {payload['residual']:.3e}",
        f"catalecticant rank {diag['catalecticant_rank']}, "
        f"kernel dim {diag['kernel_dim']}, macaulay degree {diag['macaulay_degree']}",
        f"cokernel condition {diag['cokernel_condition']:.3e}, "
        f"eigen offdiag max {diag['eigen_offdiag_max']:.3e}",
        f"quotient at degrees {top - len(observed) + 1}..{top}: numerical {observed}, "
        f"expected {diag['expected_quotient']}; R-diagonal gap catalecticant "
        f"{_gap(diag['catalecticant_gap'])}, cokernel {_gap(diag['cokernel_gap'])}",
    ]
    if "point_recovery" in payload:
        lines.append(
            f"point recovery {payload['point_recovery']:.3e}, "
            f"coefficient recovery {payload['coefficient_recovery']:.3e}"
        )
    return lines


def _cmd_decompose(args: argparse.Namespace) -> _Output:
    result = decompose(args.form, args.r, tol=args.tol, seed=args.seed)
    payload = result_to_dict(result)
    return 0, payload, _decomposition_lines(payload)


def _cmd_waring_demo(args: argparse.Namespace) -> _Output:
    points = random_unit_points(args.n, args.r, args.seed)
    coefficients = [1.0] * args.r
    form = form_from_points(points, coefficients, args.D)
    result = decompose(form, args.r, tol=args.tol, seed=args.seed)
    point_err, coeff_err = recovery_error(
        points, coefficients, result.points, result.coefficients, args.D
    )
    payload = dict(
        result_to_dict(result), point_recovery=point_err, coefficient_recovery=coeff_err
    )
    return 0, payload, _decomposition_lines(payload)


def _cmd_search_monomial(args: argparse.Namespace) -> _Output:
    found = search_monomial_ideals(args.r)
    ideals = [
        [list(gen) for gen in ideal.sorted_generators()] for ideal in found
    ]
    payload = {"r": args.r, "count": len(found), "ideals": ideals}
    lines = [f"r={args.r}: {len(found)} ideal(s)"]
    for gens in ideals:
        lines.append("  " + ", ".join(str(tuple(g)) for g in gens))
    return 0, payload, lines


def _cmd_sextic_demo(args: argparse.Namespace) -> _Output:
    record = missing_sextic_demo(PrimeField(args.prime), args.seed)
    payload = dict(record, prime=args.prime, seed=args.seed)
    lines = [
        f"sextic in full degree-6 component: {record['g_in_I6']}",
        f"sextic in quintic-generated component: {record['g_in_chopped6']}",
        f"dimensions: chopped {record['chopped6_dim']}, full {record['I6_dim']}",
    ]
    return 0, payload, lines


@dataclass(frozen=True)
class Command:
    """One subcommand: its help line, its handler and the flags it takes.

    A handler does no I/O: `run` reads the `form` file into `args.form`, a
    `SymmetricForm`, before calling it, then writes the returned payload to
    `--out` and prints the payload or the table lines, as `--format` says.
    """

    help: str
    handler: Callable[[argparse.Namespace], _Output]
    flags: tuple[str, ...]


# The table holds the _cmd_* handlers, never library functions: the handlers
# and `run` look those up as module globals when called, so a caller that
# replaces one in this module (as benchmarks/tracing.py does) sees every call.
_COMMANDS = {
    "hf": Command(
        "generic, expected-chopped, and lex-floor tables",
        _cmd_hf,
        ("--n", "--r", "--format"),
    ),
    "gap": Command(
        "predicted saturation gap and proven ceiling",
        _cmd_gap,
        ("--n", "--r", "--format"),
    ),
    "verify": Command(
        "run one case and emit a certificate",
        _cmd_verify,
        ("--n", "--r", "--prime", "--seed", "--e-max", "--out", "--format", "--no-timing"),
    ),
    "verify-range": Command(
        "verify every admissible r in a range",
        _cmd_verify_range,
        ("--n", "--r-from", "--r-to", "--prime", "--seed", "--trials", "--e-max",
         "--workers", "--out", "--format", "--no-timing"),
    ),
    "liaison": Command(
        "difference tables inside a complete intersection",
        _cmd_liaison,
        ("--n", "--d", "--r", "--format"),
    ),
    "decompose": Command(
        "decompose a form file into powers of linear forms",
        _cmd_decompose,
        ("form", "--r", "--tol", "--seed", "--out", "--format"),
    ),
    "waring-demo": Command(
        "round-trip a random rank-r form",
        _cmd_waring_demo,
        ("--n", "--D", "--r", "--tol", "--seed", "--format"),
    ),
    "search-monomial": Command(
        "monomial certificate search",
        _cmd_search_monomial,
        ("--r", "--format"),
    ),
    "sextic-demo": Command(
        "the sextic missing from the quintic-generated ideal",
        _cmd_sextic_demo,
        ("--prime", "--seed", "--format"),
    ),
}


def _build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The top-level parser and each subcommand's own parser by name."""
    parser = argparse.ArgumentParser(
        prog="chopshop",
        description="Chopped ideals of point configurations: formulas, "
        "verification certificates, monomial search, and Waring decomposition.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, command in _COMMANDS.items():
        p = subparsers[name] = sub.add_parser(name, help=command.help)
        for flag in command.flags:
            _FLAGS[flag].add_to(p, flag)
    return parser, subparsers


def run(argv=None) -> int:
    parser, subparsers = _build_parser()
    args = parser.parse_args(argv)
    command = _COMMANDS[args.command]
    # range errors print the subcommand's usage, as argparse's own do
    usage = subparsers[args.command]
    for name in command.flags:
        flag = _FLAGS[name]
        dest = name.lstrip("-").replace("-", "_")
        source = name
        if flag.env and getattr(args, dest) is None:
            raw = os.environ.get(flag.env)
            if raw is not None:
                source = flag.env
            try:
                setattr(args, dest, flag.default if raw is None else int(raw))
            except ValueError:
                usage.error(f"environment variable {flag.env}={raw!r} is not an integer")
        value = getattr(args, dest)
        if value is not None and flag.check is not None:
            complaint = flag.check(source, value, args)
            if complaint is not None:
                usage.error(complaint)
    try:
        if "form" in command.flags:
            with open(args.form, encoding="utf-8") as fh:
                args.form = form_from_dict(json.load(fh))
        code, payload, lines = command.handler(args)
        if getattr(args, "out", None):
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(payload, indent=2) + "\n")
        print(json.dumps(payload, indent=2) if args.format == "json" else "\n".join(lines))
        return code
    except (*_COMPUTATION_FAILURES, SelfCheckError) as exc:
        if args.format == "json":
            error = {"type": type(exc).__name__, "message": str(exc)}
            if getattr(exc, "diagnostics", None):
                error["diagnostics"] = diagnostics_to_dict(exc.diagnostics)
            print(json.dumps({"error": error}))
        else:
            print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, SelfCheckError) else 1


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
