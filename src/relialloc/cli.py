"""Command-line front end.

Four subcommands: ``evaluate`` (exact quantities for a system and optional
allocation), ``allocate`` (rule, balanced, or certified-optimal integer
allocations), ``simulate`` (per-replication records for one scheme), and
``experiment`` (the canned fixed-split / budget-table / convergence runs).
Each checks its flags, makes its library calls, and writes what they
return: ``simulate`` takes its records from ``experiments.simulate_records``
and its mean row and summary from ``experiments.summarize_records``, the
same two functions the experiment drivers use.

Output files are written to a temporary name and atomically renamed, so a
failed invocation never leaves a partial CSV. Every data file gets a
``.meta.json`` sidecar holding the artifact version, the resolved
configuration, and the seed; rerunning with the same flags reproduces all
bytes exactly, regardless of ``--threads``.

Exit codes: 2 malformed input or usage, 3 infeasible budget/allocation,
4 oracle guard exceeded, 5 unwritable output.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import tempfile
from collections.abc import Iterable
from pathlib import Path

import click
from click.core import ParameterSource

from . import __version__, cases
# hybrid_two_stage is unused here; perfbench's tracer test pins relialloc.cli's binding of it.
from .adaptive_sampling import SourceExhaustedError, hybrid_two_stage
from .allocation import (
    OracleGuardError,
    balanced_allocation,
    brute_force_optimal,
    rule_allocation,
)
from .experiments import (
    SCHEMES,
    SWEEP_REPLICATIONS,
    TABLE_REPLICATIONS,
    convergence_rows,
    fixed_split_rows,
    format_value,
    run_convergence_sweep,
    run_fixed_split_experiment,
    run_hybrid_expectation,
    simulate_records,
    summarize_records,
    table_rows,
)
from .system_model import (
    ReliabilityAssignment,
    SystemSpecError,
    coeff_variation,
    dump_system,
    load_system,
    parse_blocks,
    read_json,
    subsystem_reliability,
    system_reliability,
)
from .variance_analysis import (
    Allocation,
    AllocationError,
    excess_variance,
    lower_bound_system,
    system_variance,
)

EXIT_MALFORMED = 2
EXIT_INFEASIBLE = 3
EXIT_GUARD = 4
EXIT_OUTPUT = 5


def _fail(code: int, message: str):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guarded(fn):
    """Map library exceptions to the documented exit codes."""

    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except SystemSpecError as exc:
            _fail(EXIT_MALFORMED, str(exc))
        except OracleGuardError as exc:
            _fail(EXIT_GUARD, str(exc))
        except (AllocationError, SourceExhaustedError) as exc:
            _fail(EXIT_INFEASIBLE, str(exc))
        except OSError as exc:
            _fail(EXIT_OUTPUT, str(exc))

    wrapper.__name__ = fn.__name__
    wrapper.__doc__ = fn.__doc__
    return wrapper


def _resolve_system(ref: str) -> ReliabilityAssignment:
    """Load a system from a JSON path or a bundled ``case:NAME`` reference."""
    if ref.startswith("case:"):
        return cases.load_case(ref[len("case:") :])
    return load_system(ref)


def _load_allocation(path, assignment: ReliabilityAssignment) -> Allocation:
    blocks = parse_blocks(read_json(path, "allocation file"), "allocation file", (int,))
    return Allocation(assignment.topology, tuple(tuple(b) for b in blocks))


def _write_atomic(path: Path, chunks: Iterable[str]) -> None:
    """Write the strings of ``chunks`` in order to a temporary file beside
    ``path``, then rename it over ``path``."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.writelines(chunks)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


def _write_outputs(
    out_path: Path, header: list[str], rows: Iterable[list[str]], command: str, config: dict,
    extras: dict,
) -> None:
    """The CSV, streamed row by row from the iterable ``rows``, then its
    ``.meta.json`` provenance record. Thread count is an execution detail,
    never configuration, so it is deliberately not recorded."""
    lines = (",".join(row) + "\n" for row in itertools.chain((header,), rows))
    _write_atomic(out_path, lines)
    payload = {
        "artifact": "relialloc",
        "version": __version__,
        "command": command,
        "config": config,
        "output": out_path.name,
        **extras,
    }
    _write_atomic(
        out_path.with_suffix(".meta.json"),
        (json.dumps(payload, sort_keys=True, indent=2), "\n"),
    )


def _f6(x: float) -> str:
    return f"{x:.6g}"


@click.group()
def main():
    """Exact variances and adaptive sample allocation for parallel-series systems."""


@main.command()
@click.argument("system", type=str)
@click.option("--allocation", "allocation_path", type=str, default=None,
              help="JSON allocation file: {\"blocks\": [[counts...], ...]}.")
@_guarded
def evaluate(system, allocation_path):
    """Print reliabilities, variation coefficients, and exact variances."""
    assignment = _resolve_system(system)
    n = assignment.topology.subsystem_count
    click.echo(f"system reliability R = {_f6(system_reliability(assignment))}")
    for j in range(n):
        click.echo(f"  subsystem {j + 1}: R_{j + 1} = {_f6(subsystem_reliability(assignment, j))}")
        for i, p in enumerate(assignment.block(j)):
            c, c_inv = coeff_variation(p)
            click.echo(
                f"    component {i + 1}: R = {_f6(p)}  cv = {_f6(c)}  1/cv = {_f6(c_inv)}"
            )
    if allocation_path is not None:
        alloc = _load_allocation(allocation_path, assignment)
        var = system_variance(assignment, alloc)
        total = alloc.total
        q = lower_bound_system(assignment, total)
        click.echo(f"allocation total T = {total}")
        click.echo(f"exact Var = {_f6(var)}")
        click.echo(f"lower bound Q(T={total}) = {_f6(q)}")
        click.echo(f"excess T*(Var - Q) = {_f6(excess_variance(assignment, var, total))}")


@main.command()
@click.argument("system", type=str)
@click.option("--T", "total", type=click.IntRange(min=1), required=True,
              help="Total observation budget (at least 1).")
@click.option("--rule", "mode", flag_value="rule", default=True,
              help="Closed-form fractions, integerized (default).")
@click.option("--oracle", "mode", flag_value="oracle",
              help="Certified optimum by exhaustive enumeration.")
@click.option("--balanced", "mode", flag_value="balanced", help="Equal counts per slot.")
@click.option("--min-per-slot", type=click.IntRange(min=1), default=1, show_default=True,
              help="Oracle: minimum observations per component (at least 1).")
@_guarded
def allocate(system, total, mode, min_per_slot):
    """Compute an integer allocation of the budget and its exact variance."""
    given = click.get_current_context().get_parameter_source("min_per_slot")
    if mode != "oracle" and given is not ParameterSource.DEFAULT:
        raise click.UsageError(f"--min-per-slot applies to --oracle only, not --{mode}")
    assignment = _resolve_system(system)
    if mode == "rule":
        alloc = rule_allocation(assignment, total)
    elif mode == "balanced":
        alloc = balanced_allocation(assignment.topology, total)
    else:
        alloc, _ = brute_force_optimal(assignment, total, min_per_slot)
    var = system_variance(assignment, alloc)
    click.echo(f"mode: {mode}")
    for j, block in enumerate(alloc.counts):
        pretty = ", ".join(str(c) for c in block)
        click.echo(f"  subsystem {j + 1}: T_{j + 1} = {sum(block)}  M = [{pretty}]")
    label = "certified optimal Var" if mode == "oracle" else "predicted Var"
    click.echo(f"{label} = {_f6(var)}")
    click.echo(f"lower bound Q(T={total}) = {_f6(lower_bound_system(assignment, total))}")


_SEED = click.option(
    "--seed", type=click.IntRange(min=0), default=0, envvar="RELIALLOC_SEED",
    help="Master seed (>= 0); falls back to RELIALLOC_SEED, then 0.",
)
_THREADS = click.option(
    "--threads", type=click.IntRange(min=1), default=None,
    help="Accepted for compatibility; does nothing (replications run in "
         "index order on one thread).",
)


@main.command()
@click.argument("system", type=str)
@click.option("--T", "total", type=click.IntRange(min=1), required=True,
              help="Total observation budget (at least 1).")
@click.option("--scheme", type=click.Choice(SCHEMES),
              default="hybrid", show_default=True)
@click.option("--T1", "t1", type=int, default=None,
              help="First-block budget (fixed-split scheme only).")
@click.option("--reps", type=click.IntRange(min=2), required=True,
              help="Replications (at least 2).")
@_SEED
@click.option("--out", "out_path", type=str, required=True, help="Output CSV path.")
@_THREADS
@_guarded
def simulate(system, total, scheme, t1, reps, seed, out_path, threads):
    """Replicate one sampling scheme; write per-replication records and a mean row."""
    if scheme == "fixed-split" and t1 is None:
        raise click.UsageError("--scheme fixed-split requires --T1")
    if scheme != "fixed-split" and t1 is not None:
        raise click.UsageError(f"--T1 applies to --scheme fixed-split only, not {scheme}")
    assignment = _resolve_system(system)
    records = simulate_records(assignment, scheme, total, reps, seed, t1)
    summary = summarize_records(records)

    topo = assignment.topology
    header = ["rep", "R_hat"]
    header += [f"T_{j + 1}" for j in range(topo.subsystem_count)]
    header += [f"M_{i + 1}_{j + 1}" for j, n in enumerate(topo.block_sizes) for i in range(n)]
    # The per-replication rows stream to the file, then the mean row.
    rep_rows = (
        [str(rep), format_value(r_hat)]
        + [str(sum(block)) for block in counts]
        + [str(c) for block in counts for c in block]
        for rep, (r_hat, counts) in enumerate(records)
    )
    mean_row = (
        ["mean", format_value(summary.mean_r_hat)]
        + [format_value(t) for t in summary.mean_block_totals]
        + [format_value(c) for block in summary.mean_counts for c in block]
    )
    rows = itertools.chain(rep_rows, [mean_row])

    out = Path(out_path)
    config = {
        "system": dump_system(assignment),
        "system_ref": system,
        "T": total,
        "scheme": scheme,
        "T1": t1,
        "reps": reps,
        "seed": seed,
    }
    stats = {"mean_R_hat": summary.mean_r_hat, "var_R_hat": summary.var_hat, "se_var": summary.se}
    _write_outputs(out, header, rows, "simulate", config, {"summary": stats})
    click.echo(f"wrote {out} ({reps} replications), var(R_hat) = {_f6(summary.var_hat)}")


#: Per experiment mode, the flags (and their parameter names) it does not
#: read; giving one is a usage error rather than a silent no-op.
_UNREAD_FLAGS = {
    "table1": (("--system", "system_ref"), ("--sweep", "sweep")),
    "fixed-split": (("--sweep", "sweep"),),
    "convergence": (("--T", "total"),),
}


@main.command()
@click.option("--fixed-split", "mode", flag_value="fixed-split",
              help="Variance versus first-block budget (two-block systems).")
@click.option("--table1", "mode", flag_value="table1",
              help="Mean realized first-block budget for bundled cases A-D.")
@click.option("--convergence", "mode", flag_value="convergence",
              help="Optimality gap along a budget sweep.")
@click.option("--system", "system_ref", type=str, default=None,
              help="System JSON path or case:NAME (fixed-split / convergence).")
@click.option("--T", "total", type=click.IntRange(min=1), default=20,
              help="Budget, at least 1 (default 20; fixed-split / table1).")
@click.option("--reps", type=click.IntRange(min=2), default=None,
              help=f"Replications, at least 2 (defaults: {TABLE_REPLICATIONS} "
                   f"fixed-split/table1, {SWEEP_REPLICATIONS} convergence).")
@_SEED
@click.option("--sweep", type=str, default=None, help="Budget sweep START:STOP:STEP (convergence).")
@click.option("--out", "out_path", type=str, required=True, help="Output CSV path.")
@_THREADS
@_guarded
def experiment(mode, system_ref, total, reps, seed, sweep, out_path, threads):
    """Run one of the canned experiments and write its data file."""
    if mode is None:
        raise click.UsageError("pick one of --fixed-split, --table1, --convergence")
    ctx = click.get_current_context()
    unread = [
        flag for flag, name in _UNREAD_FLAGS[mode]
        if ctx.get_parameter_source(name) is not ParameterSource.DEFAULT
    ]
    if unread:
        raise click.UsageError(f"--{mode} does not read {', '.join(unread)}")
    if reps is None:
        reps = SWEEP_REPLICATIONS if mode == "convergence" else TABLE_REPLICATIONS

    extras = {}
    if mode == "table1":
        results = [
            (name, run_hybrid_expectation(cases.load_case(name), total, reps, seed))
            for name in cases.BENCH_CASES
        ]
        header, rows = table_rows(results)
        config = {"cases": list(cases.BENCH_CASES), "T": total}
        extras["mean_block_totals"] = {name: list(res.mean_block_totals) for name, res in results}
    else:
        if system_ref is None:
            raise click.UsageError(f"--{mode} requires --system")
        assignment = _resolve_system(system_ref)
        config = {"system": dump_system(assignment), "system_ref": system_ref}
        if mode == "fixed-split":
            points = run_fixed_split_experiment(assignment, total, reps, seed)
            header, rows = fixed_split_rows(points)
            config["T"] = total
            extras["exact_conditional_variance"] = {
                str(p.t1): p.exact_conditional_mean for p in points
            }
        else:
            if sweep is None:
                raise click.UsageError("--convergence requires --sweep START:STOP:STEP")
            try:
                start, stop, step = (int(part) for part in sweep.split(":"))
            except ValueError:
                raise click.UsageError(
                    "--sweep must look like START:STOP:STEP, e.g. 100:10000:100"
                )
            if start < 1 or stop < start or step < 1:
                raise click.UsageError("--sweep needs 1 <= START <= STOP and STEP >= 1")
            budgets = range(start, stop + 1, step)
            points = run_convergence_sweep(assignment, budgets, reps, seed)
            header, rows = convergence_rows(points)
            config["sweep"] = [start, stop, step]
    config.update(reps=reps, seed=seed)

    out = Path(out_path)
    _write_outputs(out, header, rows, f"experiment --{mode}", config, extras)
    click.echo(f"wrote {out}")


if __name__ == "__main__":
    main()
