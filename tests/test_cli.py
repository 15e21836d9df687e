import ast
import json
import re

import pytest
from click.testing import CliRunner

import relialloc.cli
from relialloc import run_fixed_split_experiment, run_hybrid_expectation
from relialloc.cases import load_case
from relialloc.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def write_system(tmp_path, blocks, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps({"blocks": blocks}))
    return str(path)


class TestEvaluate:
    def test_prints_reliability_and_variance(self, runner, tmp_path):
        system = write_system(tmp_path, [[0.5, 0.5], [0.5, 0.5]])
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"blocks": [[10, 10], [10, 10]]}))
        result = runner.invoke(main, ["evaluate", system, "--allocation", str(alloc)])
        assert result.exit_code == 0
        assert "R = 0.5625" in result.output
        assert "exact Var = 0.0149379" in result.output
        assert "Q(T=40) = 0.0140625" in result.output
        assert "excess" in result.output

    def test_wide_block_balanced(self, runner, tmp_path):
        system = write_system(tmp_path, [[0.05, 0.1, 0.95, 0.99]])
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"blocks": [[25, 25, 25, 25]]}))
        result = runner.invoke(main, ["evaluate", system, "--allocation", str(alloc)])
        assert result.exit_code == 0
        assert "exact Var = 1.4231e-06" in result.output

    def test_missing_file_exits_2(self, runner, tmp_path):
        result = runner.invoke(main, ["evaluate", str(tmp_path / "absent.json")])
        assert result.exit_code == 2

    def test_unknown_bundled_case_exits_2(self, runner):
        result = runner.invoke(main, ["evaluate", "case:nope"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("command", [["evaluate"], ["allocate", "--T", "10"]])
    def test_block_with_zero_reliability_exits_2(self, runner, tmp_path, command):
        system = write_system(tmp_path, [[1e-300], [0.5]])
        result = runner.invoke(main, command[:1] + [system] + command[1:])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)
        assert "subsystem 1" in result.output

    @pytest.mark.parametrize(
        "payload",
        [{"blocks": 5}, {"blocks": [[10, None]]}, {"blocks": "x"},
         {"blocks": [[2.7, 10]]}, {"blocks": [[True, 10]]}],
        ids=["blocks-not-a-list", "null-count", "string-blocks", "float-count", "bool-count"],
    )
    def test_malformed_allocation_file_exits_2(self, runner, tmp_path, payload):
        system = write_system(tmp_path, [[0.5, 0.5]])
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps(payload))
        result = runner.invoke(main, ["evaluate", system, "--allocation", str(alloc)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert "allocation file" in result.output

    def test_zero_count_allocation_exits_3(self, runner, tmp_path):
        system = write_system(tmp_path, [[0.5, 0.5]])
        alloc = tmp_path / "alloc.json"
        alloc.write_text(json.dumps({"blocks": [[10, 0]]}))
        result = runner.invoke(main, ["evaluate", system, "--allocation", str(alloc)])
        assert result.exit_code == 3


class TestAllocate:
    def test_oracle_pair(self, runner, tmp_path):
        system = write_system(tmp_path, [[0.9, 0.5]])
        result = runner.invoke(main, ["allocate", system, "--T", "4", "--oracle"])
        assert result.exit_code == 0
        assert "M = [3, 1]" in result.output
        assert "certified optimal Var = 0.0175" in result.output

    def test_rule_split(self, runner):
        result = runner.invoke(main, ["allocate", "case:D", "--T", "20", "--rule"])
        assert result.exit_code == 0
        assert "T_1 = 12" in result.output

    def test_balanced(self, runner):
        result = runner.invoke(main, ["allocate", "case:A", "--T", "40", "--balanced"])
        assert result.exit_code == 0
        assert "M = [10, 10]" in result.output

    def test_oracle_on_a_thousand_slots(self, runner, tmp_path):
        system = write_system(tmp_path, [[0.5, 0.6, 0.7, 0.8, 0.9]] * 240)
        result = runner.invoke(main, ["allocate", system, "--T", "1201", "--oracle"])
        assert result.exit_code == 0, result.output
        assert result.output.count("M = [1, 1, 1, 1, 1]") == 239

    def test_oracle_guard_exits_4(self, runner, tmp_path):
        system = write_system(tmp_path, [[0.5] * 4, [0.5] * 4])
        result = runner.invoke(main, ["allocate", system, "--T", "400", "--oracle"])
        assert result.exit_code == 4

    def test_infeasible_budget_exits_3(self, runner):
        result = runner.invoke(main, ["allocate", "case:A", "--T", "2", "--rule"])
        assert result.exit_code == 3

    @pytest.mark.parametrize(
        "flags",
        [["--T", "0", "--rule"], ["--T", "-5", "--balanced"],
         ["--T", "10", "--oracle", "--min-per-slot", "0"]],
        ids=["T-0", "T-negative", "min-per-slot-0"],
    )
    def test_value_below_one_is_usage_error(self, runner, flags):
        result = runner.invoke(main, ["allocate", "case:A"] + flags)
        assert result.exit_code == 2

    @pytest.mark.parametrize("mode", [[], ["--rule"], ["--balanced"]],
                             ids=["default", "rule", "balanced"])
    def test_min_per_slot_outside_the_oracle_is_usage_error(self, runner, mode):
        result = runner.invoke(
            main, ["allocate", "case:A", "--T", "20", "--min-per-slot", "5"] + mode
        )
        assert result.exit_code == 2
        assert "--min-per-slot" in result.output

    def test_oracle_reads_min_per_slot(self, runner):
        # test_rule_split and test_balanced cover the other modes at the default
        result = runner.invoke(
            main, ["allocate", "case:A", "--T", "20", "--oracle", "--min-per-slot", "2"]
        )
        assert result.exit_code == 0, result.output
        counts = re.findall(r"\d+", " ".join(re.findall(r"M = \[(.*)\]", result.output)))
        assert len(counts) == 4 and min(map(int, counts)) == 2

    def test_block_whose_reliability_rounds_to_one_gets_its_floor(self, runner, tmp_path):
        # The rule gives this block across-block fraction 0; its floor of
        # one draw per slot is all it gets.
        system = write_system(tmp_path, [[0.999999999, 0.999999999], [0.5, 0.6]])
        result = runner.invoke(main, ["allocate", system, "--T", "10"])
        assert result.exit_code == 0, result.output
        assert "T_1 = 2  M = [1, 1]" in result.output
        assert "T_2 = 8  M = [4, 4]" in result.output

    @pytest.mark.parametrize(
        "blocks, expected",
        [([[0.999999999, 0.999999999]], ["M = [6, 6]"]),
         ([[0.999999999, 0.999999999], [0.999999999, 0.9999999999, 0.999999999]],
          ["M = [3, 3]", "M = [1, 4, 1]"])],
        ids=["one-block", "two-blocks"],
    )
    def test_every_block_near_perfect(self, runner, tmp_path, blocks, expected):
        # Every block weight is 0, so every split has variance 0 and the
        # across-block fractions are equal.
        system = write_system(tmp_path, blocks)
        result = runner.invoke(main, ["allocate", system, "--T", "12"])
        assert result.exit_code == 0, result.output
        totals = re.findall(r"T_\d+ = (\d+)", result.output)
        assert sum(map(int, totals)) == 12
        for counts in expected:
            assert counts in result.output
        assert "predicted Var = 0\n" in result.output


class TestSimulate:
    def test_rerun_is_byte_identical(self, runner, tmp_path):
        args = ["simulate", "case:A", "--T", "20", "--reps", "40", "--seed", "7"]
        blobs = []
        for name in ("one.csv", "two.csv"):
            out = tmp_path / name
            result = runner.invoke(main, args + ["--out", str(out), "--threads", "1"])
            assert result.exit_code == 0, result.output
            blobs.append((out.read_bytes(), out.with_suffix(".meta.json").read_bytes()))
        assert blobs[0][0] == blobs[1][0]
        # sidecars differ only in the output filename
        meta = [json.loads(b[1]) for b in blobs]
        for m in meta:
            m.pop("output")
        assert meta[0] == meta[1]

    def test_thread_count_does_not_change_bytes(self, runner, tmp_path):
        args = ["simulate", "case:B", "--T", "20", "--reps", "30", "--seed", "3"]
        outputs = []
        for threads, name in ((1, "t1.csv"), (3, "t3.csv")):
            out = tmp_path / name
            result = runner.invoke(
                main, args + ["--out", str(out), "--threads", str(threads)]
            )
            assert result.exit_code == 0, result.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_env_seed_fallback(self, runner, tmp_path):
        base = ["simulate", "case:A", "--T", "20", "--reps", "10", "--threads", "1"]
        explicit = tmp_path / "a.csv"
        fallback = tmp_path / "b.csv"
        r1 = runner.invoke(main, base + ["--seed", "9", "--out", str(explicit)])
        r2 = runner.invoke(
            main, base + ["--out", str(fallback)], env={"RELIALLOC_SEED": "9"}
        )
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert explicit.read_bytes() == fallback.read_bytes()

    def test_per_replication_columns(self, runner, tmp_path):
        out = tmp_path / "sim.csv"
        result = runner.invoke(
            main,
            ["simulate", "case:A", "--T", "20", "--reps", "5", "--seed", "1",
             "--out", str(out), "--threads", "1"],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "rep,R_hat,T_1,T_2,M_1_1,M_2_1,M_1_2,M_2_2"
        assert len(lines) == 1 + 5 + 1  # header, replications, mean row
        assert lines[-1].startswith("mean,")
        for line in lines[1:-1]:
            cells = line.split(",")
            assert int(cells[2]) + int(cells[3]) == 20

    def test_balanced_scheme(self, runner, tmp_path):
        out = tmp_path / "bal.csv"
        result = runner.invoke(
            main,
            ["simulate", "case:A", "--T", "40", "--scheme", "balanced", "--reps", "50",
             "--seed", "2", "--out", str(out)],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[1].split(",")[2:] == ["20", "20", "10", "10", "10", "10"]

    def test_fixed_split_scheme_requires_t1(self, runner, tmp_path):
        out = tmp_path / "fs.csv"
        result = runner.invoke(
            main,
            ["simulate", "case:A", "--T", "20", "--scheme", "fixed-split",
             "--reps", "10", "--seed", "2", "--out", str(out)],
        )
        assert result.exit_code == 2

    def test_fixed_split_scheme(self, runner, tmp_path):
        out = tmp_path / "fs.csv"
        result = runner.invoke(
            main,
            ["simulate", "case:A", "--T", "20", "--scheme", "fixed-split", "--T1", "12",
             "--reps", "10", "--seed", "2", "--out", str(out), "--threads", "1"],
        )
        assert result.exit_code == 0
        for line in out.read_text().splitlines()[1:-1]:
            cells = line.split(",")
            assert (int(cells[2]), int(cells[3])) == (12, 8)

    @pytest.mark.parametrize(
        "scheme", [["fixed-split", "--T1", "9"], ["hybrid"]], ids=["fixed-split", "hybrid"]
    )
    def test_summary_matches_the_library_driver(self, runner, tmp_path, scheme):
        out = tmp_path / "sim.csv"
        result = runner.invoke(
            main,
            ["simulate", "case:D", "--T", "20", "--reps", "40", "--seed", "6",
             "--out", str(out), "--scheme"] + scheme,
        )
        assert result.exit_code == 0, result.output
        summary = json.loads(out.with_suffix(".meta.json").read_text())["summary"]
        if scheme[0] == "fixed-split":
            points = run_fixed_split_experiment(load_case("D"), 20, 40, 6)
            expected = next(p for p in points if p.t1 == 9)
        else:
            expected = run_hybrid_expectation(load_case("D"), 20, 40, 6)
        assert summary["var_R_hat"] == expected.var_hat
        assert summary["mean_R_hat"] == expected.mean_r_hat

    def test_single_replication_is_usage_error(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "case:A", "--T", "20", "--reps", "1",
             "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("t1", ["0", "20", "25"])
    def test_split_outside_the_budget_exits_3(self, runner, tmp_path, t1):
        result = runner.invoke(
            main,
            ["simulate", "case:A", "--T", "20", "--scheme", "fixed-split", "--T1", t1,
             "--reps", "5", "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 3
        assert f"T1 = {t1} " in result.output and "T = 20" in result.output

    def test_infeasible_budget_exits_3(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["simulate", "case:A", "--T", "3", "--reps", "5",
             "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 3
        assert not (tmp_path / "x.csv").exists()

    def test_internal_value_error_is_not_an_infeasible_budget(
        self, runner, tmp_path, monkeypatch
    ):
        def broken(*args, **kwargs):
            raise ValueError("an internal fault")

        monkeypatch.setattr("relialloc.experiments.hybrid_two_stage", broken)
        result = runner.invoke(main, SIMULATE + ["--out", str(tmp_path / "x.csv")])
        assert result.exit_code != 3
        assert isinstance(result.exception, ValueError)
        assert str(result.exception) == "an internal fault"

    def test_unwritable_output_exits_5(self, runner, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        result = runner.invoke(
            main,
            ["simulate", "case:A", "--T", "20", "--reps", "5",
             "--out", str(blocker / "deep" / "x.csv")],
        )
        assert result.exit_code == 5


SIMULATE = ["simulate", "case:A", "--T", "20", "--reps", "5"]
TABLE1 = ["experiment", "--table1", "--reps", "5"]


@pytest.mark.parametrize(
    "args, env",
    [
        (SIMULATE + ["--threads", "0"], {}),
        (TABLE1 + ["--threads", "0"], {}),
        (TABLE1 + ["--reps", "1"], {}),
        (SIMULATE + ["--seed", "-1"], {}),
        (TABLE1 + ["--seed", "-1"], {}),
        (SIMULATE, {"RELIALLOC_SEED": "-1"}),
        (TABLE1, {"RELIALLOC_SEED": "-1"}),
        (SIMULATE + ["--T", "-5"], {}),
        (SIMULATE + ["--T", "0"], {}),
        (TABLE1 + ["--T", "0"], {}),
        (["experiment", "--fixed-split", "--system", "case:A", "--T", "-5"], {}),
    ],
    ids=[
        "simulate-threads-0",
        "experiment-threads-0",
        "experiment-reps-1",
        "simulate-seed-negative",
        "experiment-seed-negative",
        "simulate-env-seed-negative",
        "experiment-env-seed-negative",
        "simulate-T-negative",
        "simulate-T-0",
        "experiment-T-0",
        "experiment-T-negative",
    ],
)
def test_malformed_flag_is_usage_error(runner, tmp_path, args, env):
    out = tmp_path / "x.csv"
    result = runner.invoke(main, args + ["--out", str(out)], env=env)
    assert result.exit_code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "args, flag",
    [
        (SIMULATE + ["--T1", "8"], "--T1"),
        (SIMULATE + ["--scheme", "balanced", "--T1", "8"], "--T1"),
        (TABLE1 + ["--system", "case:A"], "--system"),
        (TABLE1 + ["--sweep", "20:40:20"], "--sweep"),
        (["experiment", "--convergence", "--system", "case:A", "--sweep", "20:40:20",
          "--reps", "5", "--T", "20"], "--T"),
        (["experiment", "--fixed-split", "--system", "case:C", "--reps", "5",
          "--sweep", "20:40:20"], "--sweep"),
    ],
    ids=[
        "simulate-hybrid-T1",
        "simulate-balanced-T1",
        "table1-system",
        "table1-sweep",
        "convergence-T-at-its-default",
        "fixed-split-sweep",
    ],
)
def test_flag_the_mode_does_not_read_is_usage_error(runner, tmp_path, args, flag):
    out = tmp_path / "x.csv"
    result = runner.invoke(main, args + ["--out", str(out)])
    assert result.exit_code == 2, result.output
    assert flag in result.output
    assert not out.exists()


class TestExperiment:
    def test_table_mode(self, runner, tmp_path):
        out = tmp_path / "table.csv"
        result = runner.invoke(
            main,
            ["experiment", "--table1", "--reps", "60", "--seed", "5",
             "--out", str(out), "--threads", "1"],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "case,mean_T1,rounded_T1"
        assert [line.split(",")[0] for line in lines[1:]] == ["A", "B", "C", "D"]
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert meta["config"]["seed"] == 5
        assert "threads" not in json.dumps(meta)

    def test_fixed_split_mode(self, runner, tmp_path):
        out = tmp_path / "fs.csv"
        result = runner.invoke(
            main,
            ["experiment", "--fixed-split", "--system", "case:C", "--T", "20",
             "--reps", "20", "--seed", "5", "--out", str(out), "--threads", "1"],
        )
        assert result.exit_code == 0, result.output
        lines = out.read_text().splitlines()
        assert lines[0] == "T1,var_hat,se,mean_R_hat"
        assert len(lines) == 14
        meta = json.loads(out.with_suffix(".meta.json").read_text())
        assert "exact_conditional_variance" in meta

    def test_convergence_mode_rerun_identical(self, runner, tmp_path):
        args = [
            "experiment", "--convergence", "--system", "case:chain_2_3_4_5",
            "--sweep", "100:200:100", "--reps", "30", "--seed", "5", "--threads", "1",
        ]
        blobs = []
        for name in ("c1.csv", "c2.csv"):
            out = tmp_path / name
            result = runner.invoke(main, args + ["--out", str(out)])
            assert result.exit_code == 0, result.output
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]
        assert blobs[0].decode().splitlines()[0] == "T,var_hat,se,Q,excess"

    def test_requires_mode(self, runner, tmp_path):
        result = runner.invoke(main, ["experiment", "--out", str(tmp_path / "x.csv")])
        assert result.exit_code == 2

    def test_convergence_requires_sweep(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["experiment", "--convergence", "--system", "case:A",
             "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2

    def test_bad_sweep_spec(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["experiment", "--convergence", "--system", "case:A", "--sweep", "100",
             "--out", str(tmp_path / "x.csv")],
        )
        assert result.exit_code == 2


def test_cli_imports_no_private_package_name():
    # The CLI is a shell over the library's public names; dunders such as
    # __version__ are not private.
    tree = ast.parse(open(relialloc.cli.__file__).read())
    private = [
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").startswith("relialloc"))
        for alias in node.names
        if alias.name.startswith("_") and not alias.name.endswith("__")
    ]
    assert private == []
