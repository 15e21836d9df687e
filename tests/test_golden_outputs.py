"""Golden outputs: SHA-256 digests of small CLI runs, pinned byte for byte.

Each run writes a CSV and its ``.meta.json`` sidecar; both must hash to the
digests below, with ``--threads 1`` and with ``--threads 3``. A faster
replication engine or a refactor of the designs must make exactly the
same decisions from the same random streams, so it must leave every digest
unchanged. The digests depend on numpy's PCG64 ``Generator.random`` and
``Generator.binomial`` streams. Regenerate them (print ``_digests`` for
each entry of ``RUNS``) only for a deliberate change of the outputs.
"""

from __future__ import annotations

import hashlib
import json

import pytest
from click.testing import CliRunner
from test_summation_order import compensated_sum

from relialloc import allocation, rule_allocation, system_model
from relialloc.cases import load_case
from relialloc.cli import main

RUNS = {
    "simulate-hybrid": [
        "simulate", "case:chain_2_3_4_5", "--T", "400", "--scheme", "hybrid",
        "--reps", "200", "--seed", "11",
    ],
    # T=6400 puts each replication's uniforms on the numpy-array side of
    # adaptive_sampling.LIST_BLOCK_MAX, as do T=400 above and the sweep's
    # T=200 and 300 below; the T <= 100 runs are on the list side.
    "simulate-hybrid-6400": [
        "simulate", "case:chain_2_3_4_5", "--T", "6400", "--scheme", "hybrid",
        "--reps", "20", "--seed", "11",
    ],
    "simulate-fixed-split": [
        "simulate", "case:B", "--T", "20", "--scheme", "fixed-split", "--T1", "8",
        "--reps", "200", "--seed", "11",
    ],
    "simulate-balanced": [
        "simulate", "case:A", "--T", "40", "--scheme", "balanced",
        "--reps", "40", "--seed", "11",
    ],
    "experiment-table1": ["experiment", "--table1", "--reps", "200", "--seed", "11"],
    "experiment-fixed-split": [
        "experiment", "--fixed-split", "--system", "case:C", "--T", "12",
        "--reps", "100", "--seed", "11",
    ],
    "experiment-convergence": [
        "experiment", "--convergence", "--system", "case:chain_2_3_4_5",
        "--sweep", "100:300:100", "--reps", "100", "--seed", "11",
    ],
}

#: (CSV digest, sidecar digest) per run.
GOLDEN = {
    "experiment-convergence": (
        "d315c3143ccd98390f45476a4cfde4c32fee46ca2c72dd5b34cd5d064b536c54",
        "c0b8f3385a7460175055d2c8954280678a3dcc58c8909093b5b6fc0b9420b7c7",
    ),
    "experiment-fixed-split": (
        "7ed8487880c44eb54b7886c8f229b70b8d317d0942e2626afbbbaef4a62bc187",
        "6b81987ae795859dd4a8fa361b5c1e98bf8a5cfe3fb6967e40be824fe6732cfc",
    ),
    "experiment-table1": (
        "214ecea54b565e8bfe6d47b0b42c4a007fcaaa94aa39567b17a5937e259d96ad",
        "98661e0bb588b575c91d4854ee64072fed3b8eed52b987bbe4bdb09edc14d836",
    ),
    "simulate-balanced": (
        "de3bfc088a6359f62e194fe1e8107965cb4af73d6a367fe9c6de43c2368f29f9",
        "dcfa77169af09d65c5aaae12f72280cda8c8f1c64e3db101d17d16202a2e9148",
    ),
    "simulate-fixed-split": (
        "51d132b10438ca128dff620aa20f6fcc9aed2a5ba7ad32244cee7b5bbd43380a",
        "2ad74073fa372af3c53c415db30f7ae53846701adf02697b9e82e39904b113cc",
    ),
    "simulate-hybrid": (
        "bfc520634155937480c2d98cfb3ee6617b2ace9ec758f0db36891f6f4dc4685f",
        "176db175b9ba7eff8f6015b37f35a0e8760fe1935d2ebe3ab5123f8e718fbd94",
    ),
    "simulate-hybrid-6400": (
        "c7a0199a4979ee87ac1328ca9548a95ca009842c292eed6da8be205306bc7fb5",
        "dc2fa4b5191f65a4fca6f3b318dd65b20932da5c068e893e3a3fbe709a0b1bd8",
    ),
}


def _digests(args, out_dir):
    out = out_dir / "out.csv"
    result = CliRunner().invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 0, result.output
    return (
        hashlib.sha256(out.read_bytes()).hexdigest(),
        hashlib.sha256(out.with_suffix(".meta.json").read_bytes()).hexdigest(),
    )


@pytest.mark.parametrize("threads", ["1", "3"])
@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_match_golden_digests(name, threads, tmp_path):
    assert _digests(RUNS[name] + ["--threads", threads], tmp_path) == GOLDEN[name]


#: The smallest budget at which the rule allocation of the chain depends on
#: how its float sums round. Added with Python 3.12's compensated ``sum()``
#: (``test_summation_order.compensated_sum``), only block 3's inverse-cv
#: sum moves, in its last bit, and block 3's budget of 188105493 is the
#: smallest it splits differently: (37609152, 42644771, ...) in place of
#: (37609153, 42644770, ...). Found by scanning block budgets under the
#: emulation; one unit of T less gives block 3 a budget of 188105492.
CHAIN_SUM_BUDGET = 16_814_575_225

#: SHA-256 of the standard output of ``allocate`` and of ``evaluate`` on
#: that allocation, at ``CHAIN_SUM_BUDGET``.
CHAIN_GOLDEN = (
    "367f627dac976607c4cbfe8092223132d4db91dbfe69ecf295b033d55e796a87",
    "5f252ab52f715818a1617f98393f2e83004da74f39097142d56d6df82572fe1d",
)


def test_chain_allocation_at_a_sum_sensitive_budget_matches_golden_digests(tmp_path):
    chain = "case:chain_2_3_4_5"
    runner = CliRunner()
    allocate = runner.invoke(main, ["allocate", chain, "--T", str(CHAIN_SUM_BUDGET)])
    path = tmp_path / "allocation.json"
    counts = rule_allocation(load_case("chain_2_3_4_5"), CHAIN_SUM_BUDGET).counts
    path.write_text(json.dumps({"blocks": counts}))
    evaluate = runner.invoke(main, ["evaluate", chain, "--allocation", str(path)])
    assert allocate.exit_code == 0 and evaluate.exit_code == 0
    digests = tuple(hashlib.sha256(r.output.encode()).hexdigest() for r in (allocate, evaluate))
    assert digests == CHAIN_GOLDEN


def test_a_compensated_sum_changes_the_chain_counts_at_that_budget_not_below(monkeypatch):
    chain = load_case("chain_2_3_4_5")
    budgets = (CHAIN_SUM_BUDGET - 1, CHAIN_SUM_BUDGET)
    before = [rule_allocation(chain, t).counts for t in budgets]
    for module in (system_model, allocation):
        monkeypatch.setattr(module, "ordered_sum", compensated_sum)
    after = [rule_allocation(chain, t).counts for t in budgets]
    assert after[0] == before[0]
    assert after[1][2] == (37609152, 42644771, 49241939, 58609631)
    assert before[1][2] == (37609153, 42644770, 49241939, 58609631)
