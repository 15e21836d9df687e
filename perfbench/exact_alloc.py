"""The ``exact_alloc`` workload: a seeded stream of allocation queries.

Each query does the work of ``relialloc allocate --rule`` plus
``relialloc evaluate`` in-process: ``rule_allocation``, ``system_variance``,
``lower_bound_system`` and ``excess_variance``. Every ``ORACLE_EVERY``-th
query also certifies the instance with ``brute_force_optimal``. Systems
have 1-4 blocks of 1-5 slots with reliabilities in [0.01, 0.99]; budgets
run log-uniformly from the slot count to 6400. Oracle instances have 2-5
slots and the largest budget with at most ``ORACLE_CANDIDATES``
candidates, far under the guard.

The pool of queries is fixed by the seed. The child process replays it in
passes until the time is up, timing each query, and checks that every
pass returns the same results as the first. The parent checks the first
pass against exact rational arithmetic (``fractions``).

Run as a script, this is the child process:

    python3 perfbench/exact_alloc.py --seed N --seconds S --pool P --trace 0|1 --out FILE
"""

from __future__ import annotations

import argparse
import array
import json
import math
import random
import statistics
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

import relialloc as rl
from relialloc.allocation import composition_count
from relialloc.cases import load_case
from tracing import Tracer, summarize, write_spans

MAX_T = 6400
POOL = 5000
ORACLE_EVERY = 50
ORACLE_CANDIDATES = 1000
#: Gate on the float engine against the rational evaluation: relative
#: tolerance REL_TOL plus FLOOR_ULPS units in the last place of the
#: estimator's second moment E[R_hat^2] = prod_j (Var_j + R_j^2). The engine
#: forms Var as E[R_hat^2] - prod_j R_j^2, so a few ulps of E[R_hat^2] is
#: its rounding floor. Beyond that floor, relative error is the known
#: cancellation for nearly perfect blocks: it is recorded (max_rel_err),
#: not gated. Over 100k queries (seeds 0-19) no error exceeded REL_TOL by
#: more than 0.15 ulp of E[R_hat^2].
REL_TOL = 1e-5
FLOOR_ULPS = 4
PROBE_CASES = ("parallel_four", "chain_2_3_4_5", "A")
PROBE_BUDGETS = tuple(10**k for k in range(4, 13))


@dataclass(frozen=True)
class Query:
    blocks: tuple[tuple[float, ...], ...]
    total: int
    oracle: bool


def _split(rng: random.Random, slots: int, parts: int) -> list[int]:
    cuts = sorted(rng.sample(range(1, slots), parts - 1))
    return [b - a for a, b in zip([0] + cuts, cuts + [slots])]


def make_queries(seed: int, count: int) -> list[Query]:
    """The seeded query pool; the same seed gives the same pool."""
    rng = random.Random(seed)
    queries = []
    for k in range(count):
        oracle = k % ORACLE_EVERY == ORACLE_EVERY - 1
        if oracle:
            slots = rng.randint(2, 5)
            sizes = _split(rng, slots, rng.randint(1, min(4, slots)))
            # The largest budget within the candidate cap, so the oracle's
            # share of the run depends on the slot counts drawn, not on T.
            total = slots
            while total < MAX_T and composition_count(total + 1, slots, 1) <= ORACLE_CANDIDATES:
                total += 1
        else:
            sizes = [rng.randint(1, 5) for _ in range(rng.randint(1, 4))]
            slots = sum(sizes)
            total = round(math.exp(rng.uniform(math.log(slots), math.log(MAX_T))))
            total = min(max(total, slots), MAX_T)
        blocks = tuple(tuple(rng.uniform(0.01, 0.99) for _ in range(s)) for s in sizes)
        queries.append(Query(blocks, total, oracle))
    return queries


def run_query(assignment, query: Query):
    """One query through the public library API; returns plain data.

    Names are looked up on the package at call time so that a traced pass
    goes through the tracer's wrappers.
    """
    alloc = rl.rule_allocation(assignment, query.total)
    var = rl.system_variance(assignment, alloc)
    q = rl.lower_bound_system(assignment, query.total)
    excess = rl.excess_variance(assignment, var, query.total)
    result = {"counts": alloc.counts, "var": var, "q": q, "excess": excess}
    if query.oracle:
        best, best_var = rl.brute_force_optimal(assignment, query.total)
        result.update(oracle_counts=best.counts, oracle_var=best_var)
    return result


def exact_moments(blocks, counts) -> tuple[Fraction, Fraction]:
    """(Var, E[R_hat^2]) of the closed form, evaluated in exact rationals."""
    prod = Fraction(1)
    base = Fraction(1)
    for probs, ms in zip(blocks, counts):
        failure = Fraction(1)
        growth = Fraction(1)
        for p, m in zip(probs, ms):
            p = Fraction(p)
            failure *= 1 - p
            growth *= 1 + p / (1 - p) / m
        r = 1 - failure
        prod *= failure * failure * (growth - 1) + r * r
        base *= r * r
    return prod - base, prod


def check_results(queries: list[Query], results: list[dict]) -> tuple[list[tuple[int, str]], dict]:
    """Gated checks on the first pass, as (query index, message) pairs,
    plus the ungated accuracy record."""
    failures = []
    worst = 0.0
    violations = 0
    for k, (query, res) in enumerate(zip(queries, results)):
        if res is None:
            continue
        pairs = [(res["counts"], res["var"])]
        if query.oracle:
            pairs.append((res["oracle_counts"], res["oracle_var"]))
        allowances = []
        for counts, var in pairs:
            if sum(map(sum, counts)) != query.total or min(map(min, counts)) < 1:
                failures.append((k, f"query {k}: allocation {counts} does not split T={query.total}"))
                continue
            exact, second = exact_moments(query.blocks, counts)
            err = abs(Fraction(var) - exact)
            worst = max(worst, float(err / exact))
            allowances.append(REL_TOL * float(exact) + FLOOR_ULPS * sys.float_info.epsilon * float(second))
            if err > allowances[-1]:
                failures.append((k, f"query {k}: Var {var!r} off the exact {float(exact)!r} by {float(err):.3g}"))
        if query.oracle and allowances and res["oracle_var"] > res["var"] + allowances[0]:
            failures.append((k, f"query {k}: oracle Var {res['oracle_var']!r} above rule Var {res['var']!r}"))
        violations += res["var"] < res["q"]
    return failures, {"max_rel_err": worst, "bound_violations": violations}


def accuracy_probe() -> dict:
    """High-budget accuracy record on bundled systems; reported, never gated."""
    worst = 0.0
    violations = 0
    for name in PROBE_CASES:
        assignment = load_case(name)
        for total in PROBE_BUDGETS:
            alloc = rl.rule_allocation(assignment, total)
            var = rl.system_variance(assignment, alloc)
            exact = exact_moments(assignment.values, alloc.counts)[0]
            worst = max(worst, float(abs(Fraction(var) - exact) / exact))
            violations += var < rl.lower_bound_system(assignment, total)
    return {"probe_max_rel_err": worst, "probe_bound_violations": violations}


def _replay(assignments, queries, latencies, first, errors, tracer=None) -> int:
    """One pass over the pool. Returns the count of failed queries."""
    failed = 0
    clock = time.perf_counter
    for k, (assignment, query) in enumerate(zip(assignments, queries)):
        try:
            if tracer is None:
                start = clock()
                res = run_query(assignment, query)
                latencies.append(clock() - start)
            else:
                with tracer.span("bench.query"):
                    res = run_query(assignment, query)
        except Exception as exc:  # a failed query is counted, not fatal
            failed += 1
            if len(errors) < 5:
                errors.append(f"query {k}: {type(exc).__name__}: {exc}")
            continue
        if first[k] is None:
            first[k] = res
        elif res != first[k]:
            failed += 1
            if len(errors) < 5:
                errors.append(f"query {k}: pass result differs from the first pass")
    return failed


def child(seed: int, seconds: float, pool: int, trace: bool) -> dict:
    queries = make_queries(seed, pool)
    assignments = [rl.ReliabilityAssignment.from_blocks(q.blocks) for q in queries]
    first = [None] * pool
    errors: list[str] = []
    failed = _replay(assignments, queries, array.array("d"), first, errors)  # warm-up, fills `first`
    latencies = array.array("d")  # 8 bytes a sample, so peak RSS barely grows with the run
    pass_s = []
    deadline = time.perf_counter() + seconds
    while not pass_s or time.perf_counter() < deadline:
        start = time.perf_counter()
        failed += _replay(assignments, queries, latencies, first, errors)
        pass_s.append(time.perf_counter() - start)
    out = {
        "attempted": pool * (len(pass_s) + 1),
        "failed": failed,
        "errors": errors,
        "passes": len(pass_s),
        "pass_s": pass_s,
        "samples": len(latencies),
        "queries_per_s": len(latencies) / sum(latencies),
        "p50_us": float(np.percentile(np.frombuffer(latencies), 50)) * 1e6,
        "p99_us": float(np.percentile(np.frombuffer(latencies), 99)) * 1e6,
        "results": first,
    }
    if trace:
        tracer = Tracer(f"exact_alloc-{seed}")
        tracer.install()
        start = time.perf_counter()
        try:
            out["failed"] += _replay(assignments, queries, None, first, errors, tracer)
        finally:
            traced_s = time.perf_counter() - start
            tracer.uninstall()
        out["attempted"] += pool
        out["trace"] = summarize(tracer.spans, pool)
        out["trace"]["trace.overhead"] = traced_s / statistics.median(pass_s)
        out["spans"] = tracer.spans
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pool", type=int, default=POOL)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    out = child(args.seed, args.seconds, args.pool, bool(args.trace))
    spans = out.pop("spans", None)
    if spans is not None:
        write_spans(spans, args.out.with_suffix(".spans.jsonl"))
    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
