"""Command-line front-end.

Commands emit machine-readable JSON or CSV on stdout (or to --output, written
atomically).  All stored values are in nats; --bits adds a human-readable
stderr summary in bits without touching the payload.  Exit codes: 0 success,
2 validation error, 3 solver non-convergence.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import bounds as bounds_mod
from . import certificate, solver
from .certificate import report_for_distribution
from .density import density_curve
from .distributions import DiscreteInput
from .kernel import ChannelSpec, binomial_entropy_exact, binomial_entropy_lower, \
    binomial_entropy_upper, check_count
from .oracles import exact_solution
from .serialize import atomic_write, csv_text, dumps, format_real
from .solver import SolverConfig, solve_capacity

_LN2 = float(np.log(2.0))


def _solver_config(args) -> SolverConfig:
    return SolverConfig(kkt_tol=args.kkt_tol, max_outer_iters=args.max_outer_iters)


def _add_solver_flags(p: argparse.ArgumentParser) -> None:
    tol = np.format_float_scientific(SolverConfig.kkt_tol, trim="-", exp_digits=1)
    p.add_argument("--kkt-tol", type=float, default=SolverConfig.kkt_tol,
                   help=f"certified KKT slack target (default {tol})")
    p.add_argument("--max-outer-iters", type=int, default=SolverConfig.max_outer_iters,
                   help=f"outer iteration cap (default {SolverConfig.max_outer_iters})")


def _add_output_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", default=None,
                   help="output file (default stdout); relative paths resolve "
                        "under $BINOMCAP_OUTPUT_DIR when that is set")
    p.add_argument("--bits", action="store_true",
                   help="also print a stderr summary with capacities in bits "
                        "(stored data stays in nats)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="binomcap",
        description="Capacity and capacity-achieving distributions of the "
                    "binomial channel (all values in nats).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve one channel and print the report JSON")
    p.add_argument("--n", type=int, required=True)
    _add_solver_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("bounds", help="closed-form capacity/cardinality bounds")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--n-max", type=int, default=None,
                   help="emit bounds for every n up to this value")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    _add_output_flags(p)

    p = sub.add_parser("verify", help="KKT-check a user-supplied distribution")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dist", required=True,
                   help='JSON file with {"points": [...], "weights": [...]} '
                        '(a solve report with "support" also works)')
    p.add_argument("--kkt-tol", type=float, default=SolverConfig.kkt_tol)
    _add_output_flags(p)

    p = sub.add_parser("sweep", help="solve n = 1..n-max and emit a CSV summary")
    p.add_argument("--n-max", type=int, required=True)
    _add_solver_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("table", help="known exact solutions (n = 1, 2, 3)")
    _add_output_flags(p)

    p = sub.add_parser("curves", help="information-density and crest-factor curves")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, default=1001)
    _add_solver_flags(p)
    _add_output_flags(p)

    p = sub.add_parser("entropy-bounds", help="binomial entropy bounds vs exact")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--points", type=int, default=201)
    _add_output_flags(p)

    return parser


def _resolve_output(path: str) -> str:
    base = os.environ.get("BINOMCAP_OUTPUT_DIR")
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _emit(args, text: str, suffix: str | None = None) -> None:
    if args.output:
        path = _resolve_output(args.output)
        if suffix:
            stem, ext = os.path.splitext(path)
            path = f"{stem}.{suffix}{ext or '.csv'}"
        atomic_write(path, text)
    else:
        if suffix:
            sys.stdout.write(f"# {suffix}\n")
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _bits_note(args, capacity_nats: float, n: int) -> None:
    if args.bits:
        print(f"n={n}: capacity {format_real(capacity_nats)} nats = "
              f"{format_real(capacity_nats / _LN2)} bits", file=sys.stderr)


def _cmd_solve(args) -> int:
    report = solve_capacity(ChannelSpec(args.n), _solver_config(args))
    _emit(args, dumps(report.to_dict()) + "\n")
    _bits_note(args, report.capacity_nats, args.n)
    return 0 if report.converged else 3


def _cmd_bounds(args) -> int:
    if (args.n is None) == (args.n_max is None):
        raise ValueError("bounds needs exactly one of --n or --n-max")
    ns = ([check_count(args.n, "--n")] if args.n is not None
          else list(range(1, check_count(args.n_max, "--n-max") + 1)))
    rows = [vars(bounds_mod.bounds_report(n)) for n in ns]
    if args.format == "json":
        _emit(args, dumps(rows) + "\n")
    else:
        _emit(args, csv_text(rows[0].keys(), (r.values() for r in rows)))
    return 0


def _cmd_verify(args) -> int:
    with open(args.dist) as fh:
        payload = json.load(fh)
    dist = DiscreteInput.from_dict(payload)
    summary = certificate._certify(dist, ChannelSpec(args.n), args.kkt_tol)[0]
    _emit(args, dumps(vars(summary)) + "\n")
    _bits_note(args, summary.capacity_nats, args.n)
    return 0


def _cmd_sweep(args) -> int:
    config = _solver_config(args)
    rows = []
    all_converged = True
    for report in solver.sweep_capacity(check_count(args.n_max, "--n-max"), config):
        all_converged &= report.converged
        bounds = bounds_mod.bounds_report(report.n, max(report.capacity_nats, 0.0))
        rows.append({**vars(bounds), "capacity_nats": report.capacity_nats,
                     "support_size": report.support_size, "kkt_slack": report.kkt_slack})
        _bits_note(args, report.capacity_nats, report.n)
    _emit(args, bounds_mod.sweep_csv(rows))
    return 0 if all_converged else 3


def _cmd_table(args) -> int:
    reports = []
    for n in (1, 2, 3):
        fixture = exact_solution(n)
        report = report_for_distribution(fixture.input, ChannelSpec(n))
        reports.append(report.to_dict())
    _emit(args, dumps(reports) + "\n")
    return 0


def _cmd_curves(args) -> int:
    check_count(args.points, "--points", 3)
    spec = ChannelSpec(args.n)
    report = solve_capacity(spec, _solver_config(args))
    curve = density_curve(report.input, spec, grid_size=args.points)
    _emit(args, curve.to_csv(), suffix="density")
    _emit(args, bounds_mod.crest_bound_csv(args.n, grid_size=args.points), suffix="crest")
    return 0 if report.converged else 3


def _cmd_entropy_bounds(args) -> int:
    spec = ChannelSpec(args.n)
    xs = np.linspace(0.0, 1.0, check_count(args.points, "--points"))
    _emit(args, csv_text(("x", "lower", "exact", "upper"), (
        (x, binomial_entropy_lower(spec, x), binomial_entropy_exact(spec, x),
         binomial_entropy_upper(spec, x)) for x in map(float, xs))))
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "bounds": _cmd_bounds,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
    "table": _cmd_table,
    "curves": _cmd_curves,
    "entropy-bounds": _cmd_entropy_bounds,
}


# The parser of `main`, built on its first call and reused: building it
# costs about 20 times a parse, and parse_args leaves it unchanged.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
