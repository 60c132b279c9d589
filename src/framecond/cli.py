"""Command-line front end: generate frames, precondition, certify, recover,
and run the experiment harness, with plain-text matrix files and JSON reports.

Matrix files are ASCII: a header line ``rows cols`` followed by one line per
row of space-separated floats printed at 17 significant digits, so values
round-trip exactly and canonical output is byte-stable.  Reports are JSON
documents with sorted keys embedding the exact configuration for replay.

Exit codes: 0 success, 1 solver did not reach Optimal (without
``--allow-inexact``), 2 usage error.  ``certify`` ignores the solver
options (``--gap-tol``, ``--max-iter``, ``--allow-inexact``): its LP runs
at the certificate's own fixed tolerances, and a verdict needs an
``Optimal`` solve.  Its own ``--tol`` is the largest violation that still
reads as feasible.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import __version__, conic, experiments, precondition, recovery
from .frames import Frame, frame_report, random_gaussian_frame

__all__ = [
    "ParseError",
    "DimensionMismatch",
    "read_matrix",
    "write_matrix",
    "write_report",
    "main",
]


class ParseError(ValueError):
    """Malformed matrix file; the message carries the 1-based line number."""


class DimensionMismatch(ValueError):
    """Matrix body does not match its header."""


def write_matrix(path, mat) -> None:
    mat = np.atleast_2d(np.asarray(mat, dtype=float))
    with open(path, "w") as fh:
        fh.write(f"{mat.shape[0]} {mat.shape[1]}\n")
        for row in mat:
            fh.write(" ".join(f"{x:.17g}" for x in row) + "\n")


def read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].strip():
        raise ParseError(f"{path}:1: missing header")
    try:
        rows, cols = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise ParseError(f"{path}:1: header must be 'rows cols'") from exc
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != rows:
        raise DimensionMismatch(f"{path}: header says {rows} rows, found {len(body)}")
    out = np.empty((rows, cols))
    for i, line in enumerate(body):
        parts = line.split()
        if len(parts) != cols:
            raise ParseError(f"{path}:{i + 2}: expected {cols} values, found {len(parts)}")
        try:
            out[i] = [float(p) for p in parts]
        except ValueError as exc:
            raise ParseError(f"{path}:{i + 2}: non-numeric entry") from exc
    if not np.isfinite(out).all():
        raise ParseError(f"{path}: non-finite entry")
    return out


def write_report(path, report: dict) -> None:
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, allow_nan=False)
        fh.write("\n")


def _write_csv(path, header: list[str], rows) -> None:
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(f"{x:.17g}" if isinstance(x, float) else str(x) for x in row) + "\n")


def _write_gnuplot(path, csvpath, title: str, xlabel: str, ylabel: str, plots: list[str]) -> None:
    with open(path, "w") as fh:
        fh.write(
            f'set datafile separator ","\nset key autotitle columnhead\n'
            f'set title "{title}"\nset xlabel "{xlabel}"\nset ylabel "{ylabel}"\n'
        )
        fh.write("plot " + ", ".join(f'"{csvpath}" {p}' for p in plots) + "\n")


def _frame_stats(frame: Frame) -> dict:
    rep = frame_report(frame)
    return {
        "m": frame.m,
        "M": frame.n_vectors,
        "coherence": rep.coherence,
        "coherence_pair": list(rep.coherence_pair),
        "welch_bound": rep.welch_bound,
        "frame_potential": rep.frame_potential,
        "tight_defect": rep.tight_defect,
        "equiangular": rep.equiangular,
        "frame_bounds": list(rep.frame_bounds),
        "unit_norm": rep.unit_norm,
    }


def _solver_block(sol: conic.ConicSolution) -> dict:
    return {"status": sol.status, "iterations": sol.iterations, "gap": sol.gap, "rel_gap": sol.rel_gap}


def _write_cli_report(args, config: dict, frame_stats, result, solver=None) -> None:
    """Write the subcommand's JSON report: its configuration for replay
    (led by the command name), the seed, the frame statistics, the result,
    the solver block and the library versions."""
    write_report(
        args.report,
        {
            "config": {"command": args.command, **config},
            "seed": args.seed,
            "frame_stats": frame_stats,
            "result": result,
            "solver": solver,
            "versions": _versions(),
        },
    )


def _settings(args) -> conic.SolverSettings:
    return conic.SolverSettings(gap_tol=args.gap_tol, feas_tol=args.gap_tol, max_iter=args.max_iter)


def _load_frame(path) -> Frame:
    # operations that require unit columns normalize (with a warning) in the
    # library; analysis-type commands must see the matrix as stored
    return Frame(read_matrix(path))


def _check_status(args, sol: conic.ConicSolution) -> int:
    if sol.status != conic.SolverStatus.OPTIMAL and not args.allow_inexact:
        print(f"error: solver status {sol.status}", file=sys.stderr)
        return 1
    return 0


def _cmd_gen(args) -> int:
    frame = random_gaussian_frame(args.m, args.M, args.seed)
    write_matrix(args.out, frame.matrix)
    if args.report:
        _write_cli_report(args, {"m": args.m, "M": args.M}, _frame_stats(frame), {"path": args.out})
    return 0


def _cmd_analyze(args) -> int:
    frame = _load_frame(args.matrix)
    stats = _frame_stats(frame)
    for key, val in stats.items():
        print(f"{key}: {val}")
    if args.report:
        _write_cli_report(args, {"matrix": args.matrix}, stats, stats)
    return 0


def _precondition_common(args, diagonal: bool) -> int:
    frame = _load_frame(args.matrix)
    settings = _settings(args)
    if diagonal:
        result = precondition.diagonal_lp(frame, settings)
    else:
        result = precondition.solve_coherence(frame, settings)
    code = _check_status(args, result.solution)
    if code:
        return code
    if args.out:
        write_matrix(args.out, result.G)
    print(f"coherence: {result.coherence_before:.6f} -> {result.verified_coherence:.6f} "
          f"(q* = {result.q:.6f}, kappa(G) = {result.condition_number:.4f})")
    if args.report:
        _write_cli_report(
            args,
            {"matrix": args.matrix, "gap_tol": args.gap_tol, "max_iter": args.max_iter},
            _frame_stats(frame),
            {
                "q": result.q,
                "coherence_before": result.coherence_before,
                "coherence_after": result.verified_coherence,
                "welch_bound": frame_report(frame).welch_bound,
                "kappa": result.condition_number,
                "jitter": result.jitter,
                "active_pos_size": len(result.active_pos),
                "active_neg_size": len(result.active_neg),
                "preconditioner_path": args.out,
            },
            _solver_block(result.solution),
        )
    return 0


def _cmd_precondition(args) -> int:
    return _precondition_common(args, diagonal=False)


def _cmd_diag_lp(args) -> int:
    return _precondition_common(args, diagonal=True)


def _cmd_tighten(args) -> int:
    frame = _load_frame(args.matrix)
    settings = _settings(args)
    result = precondition.solve_coherence(frame, settings)
    code = _check_status(args, result.solution)
    if code:
        return code
    g1, tight = precondition.compose_tight_preconditioner(result.G, frame)
    if args.out:
        write_matrix(args.out, tight.matrix)
    if args.out_g:
        write_matrix(args.out_g, g1)
    rep = frame_report(tight)
    print(f"coherence: {result.coherence_before:.6f} -> {rep.coherence:.6f}, "
          f"tight defect {rep.tight_defect:.3e}")
    if args.report:
        _write_cli_report(
            args,
            {"matrix": args.matrix, "gap_tol": args.gap_tol},
            _frame_stats(frame),
            {
                "coherence_before": result.coherence_before,
                "coherence_intermediate": result.verified_coherence,
                "coherence_after": rep.coherence,
                "tight_defect": rep.tight_defect,
                "tight_frame_path": args.out,
            },
            _solver_block(result.solution),
        )
    return 0


def _cmd_certify(args) -> int:
    frame = _load_frame(args.matrix)
    try:
        cert = precondition.certificate_feasibility(frame, tol=args.tol)
    except precondition.CertificateNotOptimal as exc:
        print(f"error: certificate LP status {exc.status}", file=sys.stderr)
        return 1
    if cert.feasible:
        print("feasible: no strict coherence improvement exists")
    else:
        print(f"infeasible: strict improvement possible (violation {cert.max_violation:.3e})")
    if args.report:
        _write_cli_report(
            args,
            {"matrix": args.matrix, "tol": args.tol},
            _frame_stats(frame),
            {
                "feasible": cert.feasible,
                "max_violation": cert.max_violation,
                "active_pos": [list(map(int, p)) for p in cert.active_pos],
                "active_neg": [list(map(int, p)) for p in cert.active_neg],
            },
        )
    return 0


def _cmd_recover(args) -> int:
    frame = Frame(read_matrix(args.matrix))
    y = read_matrix(args.signal).ravel()
    if args.decoder == "omp":
        result = recovery.omp(frame, y, frame.m if args.k is None else args.k)
    else:
        result = recovery.basis_pursuit(frame.matrix, y, _settings(args))
    if args.out:
        write_matrix(args.out, result.estimate.reshape(-1, 1))
    print(f"{result.method}: support {list(result.support)}, residual {result.residual_norm:.3e}")
    if args.report:
        _write_cli_report(
            args,
            {"matrix": args.matrix, "signal": args.signal, "decoder": args.decoder, "k": args.k},
            _frame_stats(frame),
            {
                "support": list(result.support),
                "residual_norm": result.residual_norm,
                "iterations": result.iterations,
                "estimate_path": args.out,
            },
        )
    return 0


def _cmd_phase(args) -> int:
    m_lo = args.m_min if args.m_min is not None else 2
    m_hi = args.m_max if args.m_max is not None else args.M - 1
    diagram = experiments.phase_diagram(
        args.M, range(m_lo, m_hi + 1), args.trials, args.seed,
        pipeline=args.pipeline, decoder=args.decoder, settings=_settings(args),
    )
    rows = []
    for i, m in enumerate(diagram.m_grid):
        for s in range(1, m + 1):
            rows.append((m, s, float(diagram.success_rate[i, s - 1])))
    _write_csv(args.out, ["m", "sparsity", "success_rate"], rows)
    gp = args.out + ".gp"
    _write_gnuplot(gp, args.out, f"phase diagram ({args.pipeline}, {args.decoder})",
                   "m", "sparsity", ["using 1:($3>=0.5?$2:1/0) with points"])
    print(f"wrote {args.out} ({len(rows)} cells); 50% curve: {diagram.curve.tolist()}")
    if args.report:
        _write_cli_report(
            args,
            {"M": args.M, "m_min": m_lo, "m_max": m_hi, "trials": args.trials,
             "pipeline": args.pipeline, "decoder": args.decoder, "gap_tol": args.gap_tol},
            None,
            {"csv_path": args.out, "gnuplot_path": gp,
             "m_grid": diagram.m_grid, "curve": diagram.curve.tolist(),
             "failed_decodes": int(diagram.failed_decodes.sum())},
        )
    return 0


def _cmd_sweep(args) -> int:
    frame = _load_frame(args.matrix)
    grid = list(np.arange(args.t1, args.t1_max + 1e-12, args.t1_step))
    record = experiments.condition_sweep(frame, args.t2, grid, _settings(args))
    rows = list(zip(grid, record.coherence, record.condition_number))
    _write_csv(args.out, ["t1", "coherence", "kappa"], rows)
    _write_gnuplot(args.out + ".gp", args.out, "condition sweep", "kappa(G)",
                   "coherence(G Phi)", ["using 3:2 with linespoints"])
    print(f"wrote {args.out}; coherence {record.coherence[0]:.4f} -> {record.coherence[-1]:.4f}")
    if args.report:
        _write_cli_report(
            args,
            {"matrix": args.matrix, "t2": args.t2, "t1": args.t1, "t1_max": args.t1_max,
             "t1_step": args.t1_step, "gap_tol": args.gap_tol},
            _frame_stats(frame),
            {"csv_path": args.out, "t1_grid": grid, "coherence": record.coherence,
             "condition_number": record.condition_number,
             "failed_solves": sum(st != conic.SolverStatus.OPTIMAL for st in record.statuses)},
        )
    return 0


def _cmd_table(args) -> int:
    m_list = [int(tok) for tok in args.m_list.split(",")]
    rows = experiments.coherence_table(
        m_list, args.M, args.trials, args.seed, variant=args.pipeline,
        settings=_settings(args),
    )
    data = [(r.m, r.mean_mu_phi, r.mean_mu_precond, r.welch_bound, r.failed_solves) for r in rows]
    _write_csv(args.out, ["m", "mean_mu_phi", "mean_mu_precond", "welch_bound", "failed_solves"], data)
    gp = args.out + ".gp"
    _write_gnuplot(gp, args.out, "average coherence", "m", "coherence",
                   ["using 1:2 with linespoints", "using 1:3 with linespoints",
                    "using 1:4 with linespoints"])
    print(f"wrote {args.out} ({len(rows)} rows)")
    if args.report:
        _write_cli_report(
            args,
            {"M": args.M, "m_list": m_list, "trials": args.trials, "pipeline": args.pipeline,
             "gap_tol": args.gap_tol},
            None,
            {"csv_path": args.out, "gnuplot_path": gp,
             "rows": [{"m": r.m, "mean_mu_phi": r.mean_mu_phi, "mean_mu_precond": r.mean_mu_precond,
                       "welch_bound": r.welch_bound, "failed_solves": r.failed_solves} for r in rows],
             "failed_solves": sum(r.failed_solves for r in rows)},
        )
    return 0


def _positive_int(text: str) -> int:
    """argparse type for a count of at least 1."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return int(text)


def _versions() -> dict:
    return {"framecond": __version__, "numpy": np.__version__}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing leaves it
    unchanged, as every call returns a fresh namespace."""
    parser = argparse.ArgumentParser(
        prog="framecond",
        description="frame preconditioning for coherence reduction and sparse recovery",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--out", type=str, default=None)
    common.add_argument("--report", type=str, default=None)
    common.add_argument("--gap-tol", type=float, default=1e-7, dest="gap_tol")
    common.add_argument("--max-iter", type=int, default=200, dest="max_iter")
    common.add_argument("--allow-inexact", action="store_true", dest="allow_inexact")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common], help="generate a seeded Gaussian frame")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--M", type=int, required=True)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("analyze", parents=[common], help="report frame metrics")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("precondition", parents=[common], help="minimize coherence over all preconditioners")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_precondition)

    p = sub.add_parser("diag-lp", parents=[common], help="minimize coherence over diagonal preconditioners")
    p.add_argument("matrix")
    p.set_defaults(func=_cmd_diag_lp)

    p = sub.add_parser("tighten", parents=[common], help="project the preconditioned frame to the nearest tight frame")
    p.add_argument("matrix")
    p.add_argument("--out-g", type=str, default=None, dest="out_g")
    p.set_defaults(func=_cmd_tighten)

    p = sub.add_parser("certify", parents=[common],
                       help="decide whether strict coherence improvement exists (ignores the solver options)")
    p.add_argument("matrix")
    p.add_argument("--tol", type=float, default=precondition.CERTIFICATE_TOL)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("recover", parents=[common], help="sparse recovery from a measurement vector")
    p.add_argument("matrix")
    p.add_argument("signal")
    p.add_argument("--decoder", choices=["omp", "bp"], default="bp")
    p.add_argument("--k", type=_positive_int, default=None, help="OMP support cap (default: m)")
    p.set_defaults(func=_cmd_recover)

    p = sub.add_parser("phase", parents=[common], help="phase-transition diagram")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--m-min", type=int, default=None, dest="m_min")
    p.add_argument("--m-max", type=int, default=None, dest="m_max")
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--pipeline", choices=["phi", "gphi", "g1phi"], default="phi")
    p.add_argument("--decoder", choices=["omp", "bp"], default="bp")
    p.set_defaults(func=_cmd_phase)

    p = sub.add_parser("sweep", parents=[common], help="coherence vs condition-number sweep")
    p.add_argument("matrix")
    p.add_argument("--t1", type=float, default=1.0)
    p.add_argument("--t2", type=float, default=1.0)
    p.add_argument("--t1-max", type=float, default=5.0, dest="t1_max")
    p.add_argument("--t1-step", type=float, default=0.5, dest="t1_step")
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("table", parents=[common], help="average-coherence table over seeded frames")
    p.add_argument("--M", type=int, required=True)
    p.add_argument("--m-list", type=str, required=True, dest="m_list")
    p.add_argument("--trials", type=int, default=20)
    p.add_argument("--pipeline", choices=["gphi", "g1phi"], default="gphi")
    p.set_defaults(func=_cmd_table)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command in ("gen", "phase", "sweep", "table") and args.out is None:
        parser.error(f"{args.command} requires --out")
    try:
        return args.func(args)
    except (ParseError, DimensionMismatch, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
