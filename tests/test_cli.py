"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import re

import pytest

import repro.cli
import repro.harness.parallel
from repro.cli import CRN_MODE_NAMES, CRN_NAMES, build_parser, main
from repro.crn.compile import CRN_MODES
from repro.crn.library import CRN_WORKLOADS
from repro.engine.selection import ENGINE_NAMES
from repro.harness.parallel import KIND_VECTOR, WORKLOADS, get_workload


def printed_record(output: str) -> dict:
    """The record `repro simulate` prints after its one-line header."""
    return json.loads(output.split("\n", 1)[1])


class TestParser:
    def test_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--version"])
        assert excinfo.value.code == 0

    def test_all_subcommands_registered(self):
        parser = build_parser()
        for command in (
            "figure2",
            "accuracy",
            "states",
            "termination",
            "bounds",
            "simulate",
            "sweep",
            "engines",
            "protocols",
        ):
            args = parser.parse_args([command] if command != "bounds" else ["bounds"])
            assert args.command == command

    def test_simulate_rejects_unknown_engine(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--engine", "warp"])

    def test_crn_choices_are_the_library(self):
        # The parser spells the choices out so that it loads no CRN module.
        assert CRN_NAMES == tuple(sorted(CRN_WORKLOADS))
        assert CRN_MODE_NAMES == CRN_MODES


class TestBenchmarkProbeSeams:
    """The benchmark reads a sweep's records by rebinding
    ``repro.cli.run_trials`` and marks the first trial of each process by
    rebinding ``repro.harness.parallel.run_trial``: both must stay module
    globals that the sweep reads at call time."""

    @pytest.mark.parametrize(
        "argv, trials",
        [
            ("sweep --protocol epidemic --sizes 200 --runs 2 --engine batched", 2),
            ("sweep --engine vector --protocol figure2 --fast --sizes 64 --runs 1", 1),
        ],
    )
    def test_rebound_names_see_every_sweep_and_trial(
        self, argv, trials, monkeypatch, capsys
    ):
        calls = {"run_trials": 0, "run_trial": 0}

        def count_calls(module, name):
            original = getattr(module, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)

        count_calls(repro.cli, "run_trials")
        count_calls(repro.harness.parallel, "run_trial")
        assert main(argv.split()) == 0
        assert calls == {"run_trials": 1, "run_trial": trials}


def assert_bad_input(words: list[str], capsys) -> str:
    """``main(words)`` exits 2 and prints one error line naming the verb
    path, subcommand included, and nothing on stdout; returns the line."""
    verb = " ".join(words[:2] if words[0] in ("crn", "store") else words[:1])
    assert main(words) == 2
    captured = capsys.readouterr()
    assert "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith(f"repro {verb}: error: ")
    assert captured.out == ""
    return line


class TestBadInput:
    @pytest.mark.parametrize(
        "argv",
        [
            "sweep --protocol epidemic --sizes 1 --runs 1",
            "figure2 --fast --sizes abc",
            "termination --sizes 16 --runs 0",
            "simulate --protocol epidemic --n 1",
            "accuracy --fast --sizes 1",
            "accuracy --fast --sizes 16 --runs 0",
            "states --fast --sizes 1",
            "bounds --n 2",
            "crn simulate --crn epidemic --n 1",
            "crn sweep --crn epidemic --sizes 1 --runs 1",
            "store status --store warp://x",
            # A negative, NaN or infinite run length, on every engine.
            *(
                "simulate --reaction A+B->B+B --init A:0.5,B:0.5 "
                f"--chem-time {time} --n 100 --engine {engine}"
                for engine in ENGINE_NAMES
                for time in ("-1", "nan", "inf")
            ),
        ],
    )
    def test_library_error_exits_2_with_one_error_line(self, argv, capsys):
        assert_bad_input(argv.split(), capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            # A budget or a lease must be positive and finite.
            *(
                f"{command} --max-time {value}"
                for command in (
                    "sweep --protocol epidemic --sizes 100 --runs 1",
                    "simulate --protocol epidemic --n 100",
                    "sweep --protocol figure2 --engine vector --fast --sizes 100 "
                    "--runs 1",
                    "simulate --protocol figure2 --engine vector --fast --n 100",
                )
                for value in ("nan", "inf")
            ),
            "sweep --protocol epidemic --sizes 100 --runs 1 --max-time nan "
            "--store sqlite:bad-budget.db",
            "crn sweep --crn sir --sizes 1000 --runs 1 --chem-time nan",
            "crn sweep --crn sir --sizes 1000 --runs 1 --chem-time inf",
            "simulate --reaction A+B->B+B --init A:0.5,B:0.5 --chem-time nan",
            *(
                f"sweep --protocol epidemic --sizes 100 --runs 1 --lease {lease}{store}"
                for lease in ("nan", "inf")
                for store in (
                    "",
                    " --store sqlite:bad-lease.db",
                    " --cache-dir cache",
                    " --cache-dir cache --resume",
                )
            ),
            *(
                f"termination --sizes 64 --runs 1 --budget {budget}"
                for budget in ("-1", "0", "nan", "inf")
            ),
            # Checked before the experiment prints its header.
            "termination --sizes 16 --runs 0",
        ],
    )
    def test_bad_budget_or_lease_touches_no_store(
        self, argv, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.chdir(tmp_path)
        cache = "sweep --protocol epidemic --sizes 100 --runs 1 --cache-dir cache"
        assert main(cache.split()) == 0
        capsys.readouterr()

        def files():
            return {
                path: path.read_bytes()
                for path in tmp_path.rglob("*")
                if path.is_file()
            }

        before = files()
        assert_bad_input(argv.split(), capsys)
        assert files() == before

    @pytest.mark.parametrize(
        "argv",
        [
            "store status --store sqlite:{root}/epidemic-count.sqlite",
            "sweep --protocol epidemic --sizes 100 --runs 1 "
            "--store sqlite:{root}/epidemic-count.sqlite",
            "sweep --protocol epidemic --engine count --sizes 100 --runs 1 "
            "--cache-dir {root} --resume",
        ],
    )
    def test_a_store_file_that_is_not_sqlite_is_bad_input(
        self, argv, capsys, tmp_path
    ):
        path = tmp_path / "epidemic-count.sqlite"
        path.write_text("not a database")
        line = assert_bad_input(argv.format(root=tmp_path).split(), capsys)
        assert str(path) in line
        assert path.read_text() == "not a database"
        assert list(tmp_path.iterdir()) == [path]


class TestCommands:
    def test_bounds_text(self, capsys):
        assert main(["bounds", "--n", "1024"]) == 0
        output = capsys.readouterr().out
        assert "Theorem 3.1" in output
        assert "1024" in output

    def test_bounds_json(self, capsys):
        assert main(["bounds", "--n", "512", "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["population"] == 512
        assert payload["additive_error_claim"] == 5.7

    def test_simulate_figure2_fast(self, capsys):
        code = main(
            ["simulate", "--protocol", "figure2", "--n", "96", "--fast", "--seed", "1"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "'figure2' on the vector engine" in output
        record = printed_record(output)
        assert record["converged"] is True
        assert record["max_additive_error"] < 5.7
        assert record["extra"]["protocol"] == "figure2"

    def test_figure2_fast(self, capsys, tmp_path):
        csv_path = tmp_path / "fig2.csv"
        code = main(
            [
                "figure2",
                "--fast",
                "--sizes",
                "64,128",
                "--runs",
                "1",
                "--csv",
                str(csv_path),
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Figure 2 reproduction" in output
        assert "max additive error" in output
        assert csv_path.exists()
        assert csv_path.read_text().startswith("population_size,")

    def test_accuracy_fast(self, capsys):
        assert main(["accuracy", "--fast", "--sizes", "64", "--runs", "1"]) == 0
        assert "Theorem 3.1 accuracy" in capsys.readouterr().out

    def test_states_fast(self, capsys):
        assert main(["states", "--fast", "--sizes", "64"]) == 0
        assert "state complexity" in capsys.readouterr().out

    @pytest.mark.parametrize("engine", ["agent", "count", "batched", "vector"])
    def test_simulate_epidemic_all_engines(self, capsys, engine):
        code = main(
            [
                "simulate",
                "--protocol",
                "epidemic",
                "--n",
                "300",
                "--engine",
                engine,
                "--seed",
                "4",
            ]
        )
        assert code == 0
        record = printed_record(capsys.readouterr().out)
        assert record["extra"]["engine"] == engine
        assert record["converged"] is True
        assert record["extra"]["outputs"] == {"True": 300}

    def test_simulate_majority_batched(self, capsys):
        code = main(
            ["simulate", "--protocol", "majority", "--n", "2000", "--engine", "batched"]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "'majority' on the batched engine" in output
        assert printed_record(output)["converged"] is True

    def test_simulate_termination_signal(self, capsys):
        code = main(
            [
                "simulate",
                "--protocol",
                "termination",
                "--n",
                "5000",
                "--engine",
                "batched",
                "--batch-size",
                "64",
            ]
        )
        assert code == 0
        assert "'termination' on the batched engine" in capsys.readouterr().out

    def test_simulate_non_convergence_exit_code(self, capsys):
        # Leader election needs Theta(n) time; a tiny budget cannot finish.
        code = main(
            [
                "simulate",
                "--protocol",
                "leader",
                "--n",
                "5000",
                "--engine",
                "count",
                "--max-time",
                "1",
            ]
        )
        assert code == 1
        assert printed_record(capsys.readouterr().out)["converged"] is False

    def test_sweep_serial(self, capsys):
        code = main(
            [
                "sweep",
                "--protocol",
                "epidemic",
                "--sizes",
                "64,128",
                "--runs",
                "2",
                "--engine",
                "count",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "4 total, 4 executed, 0 from cache" in output
        assert "P(converged)" in output

    def test_sweep_parallel_with_resume(self, capsys, tmp_path):
        args = [
            "sweep",
            "--protocol",
            "epidemic",
            "--sizes",
            "64,128",
            "--runs",
            "2",
            "--engine",
            "count",
            "--workers",
            "2",
            "--cache-dir",
            str(tmp_path),
            "--resume",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "4 executed, 0 from cache" in first
        # Re-running the identical sweep with --resume executes zero trials.
        assert main(args) == 0
        second = capsys.readouterr().out
        assert "0 executed, 4 from cache" in second
        assert [path.name for path in tmp_path.iterdir()] == ["epidemic-count.sqlite"]

    def test_sweep_without_resume_clears_cache(self, capsys, tmp_path):
        args = [
            "sweep",
            "--protocol",
            "epidemic",
            "--sizes",
            "64",
            "--runs",
            "1",
            "--engine",
            "count",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "1 executed, 0 from cache" in capsys.readouterr().out

    def test_sweep_non_convergence_exit_code(self, capsys):
        code = main(
            [
                "sweep",
                "--protocol",
                "leader",
                "--sizes",
                "2000",
                "--runs",
                "1",
                "--engine",
                "count",
                "--max-time",
                "1",
            ]
        )
        assert code == 1

    def test_sweep_vector_figure2(self, capsys, tmp_path):
        args = [
            "sweep",
            "--engine",
            "vector",
            "--protocol",
            "figure2",
            "--fast",
            "--sizes",
            "64,128",
            "--runs",
            "2",
            "--cache-dir",
            str(tmp_path),
            "--resume",
        ]
        assert main(args) == 0
        output = capsys.readouterr().out
        assert "'figure2' on the vector engine" in output
        assert "4 total, 4 executed, 0 from cache" in output
        assert "non-conv" in output
        assert (tmp_path / "figure2-vector.sqlite").exists()
        # Re-running the identical sweep replays every trial from the cache.
        assert main(args) == 0
        assert "0 executed, 4 from cache" in capsys.readouterr().out

    def test_sweep_vector_leader_terminating(self, capsys):
        code = main(
            [
                "sweep",
                "--engine",
                "vector",
                "--protocol",
                "leader-terminating",
                "--fast",
                "--phase-count",
                "8",
                "--sizes",
                "64",
                "--runs",
                "1",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "'leader-terminating' on the vector engine" in output
        assert "1 total, 1 executed" in output

    def test_sweep_vector_workload_requires_vector_engine(self, capsys):
        code = main(
            ["sweep", "--protocol", "figure2", "--engine", "batched", "--sizes", "64"]
        )
        assert code == 2
        assert "pass --engine vector" in capsys.readouterr().err

    def test_sweep_vector_rejects_inapplicable_engine_flags(self, capsys):
        code = main(
            [
                "sweep",
                "--engine",
                "vector",
                "--protocol",
                "figure2",
                "--batch-size",
                "64",
                "--sizes",
                "64",
            ]
        )
        assert code == 2
        assert "--batch-size" in capsys.readouterr().err
        code = main(
            [
                "sweep",
                "--engine",
                "vector",
                "--protocol",
                "figure2",
                "--check-interval",
                "100",
                "--sizes",
                "64",
            ]
        )
        assert code == 2
        assert "--check-interval" in capsys.readouterr().err

    def test_sweep_phase_count_rejected_for_other_workloads(self, capsys):
        code = main(
            [
                "sweep",
                "--engine",
                "vector",
                "--protocol",
                "figure2",
                "--phase-count",
                "8",
                "--sizes",
                "64",
            ]
        )
        assert code == 2
        assert "phase_count" in capsys.readouterr().err

    def test_sweep_finite_state_rejects_vector_only_flags(self, capsys):
        base = ["sweep", "--protocol", "epidemic", "--engine", "count",
                "--sizes", "64", "--runs", "1"]
        code = main(base + ["--phase-count", "8"])
        assert code == 2
        assert "--phase-count" in capsys.readouterr().err
        code = main(base + ["--fast"])
        assert code == 2
        assert "--fast" in capsys.readouterr().err

    def test_termination_command(self, capsys):
        code = main(
            [
                "termination",
                "--sizes",
                "16,32",
                "--runs",
                "1",
                "--threshold",
                "6",
                "--budget",
                "50",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "Theorem 4.1" in output
        assert "uniform dense protocol" in output
        assert "leader-driven" in output


class TestOneWorkloadModel:
    """`simulate` and `sweep` serve every registered workload on one path."""

    @pytest.mark.parametrize(
        "selector",
        [("--protocol", name) for name in sorted(WORKLOADS)]
        + [("--crn", name) for name in sorted(CRN_WORKLOADS)],
    )
    def test_simulate_runs_every_registry_entry(self, selector, capsys):
        flag, name = selector
        argv = ["simulate", flag, name, "--n", "64", "--seed", "2"]
        if flag == "--protocol" and WORKLOADS[name].kind == KIND_VECTOR:
            argv.append("--fast")
        if name == "leader-terminating":
            argv += ["--phase-count", "8"]
        assert main(argv) in (0, 1)
        output = capsys.readouterr().out
        assert f"{name!r} on the" in output
        record = printed_record(output)
        assert record["population_size"] == 64
        assert record["extra"]["interactions"] > 0

    @pytest.mark.parametrize(
        "workload",
        [
            ["--protocol", "epidemic", "--engine", "count"],
            ["--protocol", "figure2", "--fast"],
            ["--crn", "sir"],
        ],
    )
    def test_simulate_prints_the_record_a_one_run_sweep_stores(
        self, workload, capsys, tmp_path, stored_lines
    ):
        assert main(["simulate", *workload, "--n", "200", "--seed", "5"]) == 0
        printed = printed_record(capsys.readouterr().out)
        sweep = ["sweep", *workload, "--sizes", "200", "--runs", "1", "--seed", "5"]
        assert main([*sweep, "--cache-dir", str(tmp_path)]) == 0
        (store_file,) = tmp_path.glob("*.sqlite")
        (line,) = stored_lines(store_file)
        assert json.loads(line)["record"] == printed

    def test_crn_sweep_and_sweep_write_the_same_store(
        self, capsys, tmp_path, stored_lines
    ):
        argv = ["--crn", "sir", "--sizes", "300", "--runs", "2", "--engine",
                "multiscale"]
        assert main(["crn", "sweep", *argv, "--cache-dir", str(tmp_path / "a")]) == 0
        assert main(["sweep", *argv, "--cache-dir", str(tmp_path / "b")]) == 0
        written = [
            stored_lines(tmp_path / side / "crn-sir-multiscale.sqlite")
            for side in ("a", "b")
        ]
        assert len(written[0]) == 2
        assert written[0] == written[1]

    def test_crn_verbs_are_the_top_level_verbs(self):
        parser = build_parser()
        for verb in ("simulate", "sweep"):
            crn_args = parser.parse_args(["crn", verb])
            assert crn_args.handler is parser.parse_args([verb]).handler

    def test_protocol_and_crn_are_exclusive(self, capsys):
        code = main(["simulate", "--protocol", "epidemic", "--crn", "sir"])
        assert code == 2
        assert "not both" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            ("--crn sir --scheduler sequential",
             "--scheduler does not apply to crn workloads"),
            ("--protocol epidemic --chem-time 5",
             "--chem-time does not apply to finite-state workloads"),
            # A zero value is a given flag, not an unset one.
            ("--protocol figure2 --check-interval 0",
             "--check-interval does not apply to vector workloads"),
            ("--protocol figure2 --batch-size 0",
             "--batch-size does not apply to vector workloads"),
            ("--protocol epidemic --phase-count 0",
             "--phase-count does not apply to finite-state workloads"),
            ("--protocol epidemic --leap-eps 0",
             "the batched engine does not accept options ['leap_eps']"),
            ("--crn sir --max-time 0", "--max-time does not apply to crn workloads"),
        ],
        ids=["scheduler-crn", "chem-time-finite-state", "check-interval-0-vector",
             "batch-size-0-vector", "phase-count-0-finite-state",
             "leap-eps-0-finite-state", "max-time-0-crn"],
    )
    def test_kind_flags_are_rejected_for_other_kinds(self, argv, message, capsys):
        assert main(["simulate", "--n", "100", *argv.split()]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, option, key",
        [
            ("--leap-eps 0.1", {"leap_eps": 0.1}, "b9ae53e9fced"),
            ("--regime-thresholds 10,1000",
             {"regime_thresholds": (10.0, 1000.0)}, None),
        ],
    )
    def test_multiscale_knobs_reach_finite_state_trials(
        self, flag, option, key, capsys, tmp_path, stored_lines
    ):
        # The flag keys the trial the library builds from the same option.
        argv = ["sweep", "--protocol", "epidemic", "--sizes", "100000",
                "--runs", "1", "--seed", "1", *flag.split()]
        assert main([*argv, "--engine", "multiscale",
                     "--cache-dir", str(tmp_path)]) == 0
        (line,) = stored_lines(tmp_path / "epidemic-multiscale.sqlite")
        (spec,) = get_workload("epidemic").trials(
            [100000], 1, engine="multiscale", base_seed=1, **option
        )
        assert json.loads(line)["key"] == spec.cache_key()
        assert key is None or spec.cache_key().startswith(key)
        # Any other engine rejects the option, in one error line.
        capsys.readouterr()
        assert main([*argv, "--engine", "batched"]) == 2
        error = capsys.readouterr().err
        assert error.count("\n") == 1
        assert f"the batched engine does not accept options {sorted(option)}" in error

    @pytest.mark.parametrize("selector", ["--crn sir", "--protocol epidemic"])
    @pytest.mark.parametrize(
        "adhoc_flag", ["--init S:0.9,I:0.1", "--seed-init I:1", "--name mine"]
    )
    def test_adhoc_network_flags_rejected_for_registered_workloads(
        self, selector, adhoc_flag, capsys
    ):
        code = main(["simulate", *selector.split(), "--n", "100",
                     *adhoc_flag.split()])
        assert code == 2
        assert "cannot be combined" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--telemetry", "--check-interval 10"])
    def test_adhoc_network_rejects_flags_it_does_not_read(self, flag, capsys):
        code = main(["simulate", "--reaction", "L + L -> L + F", "--init", "L:1",
                     "--n", "100", "--chem-time", "1", *flag.split()])
        assert code == 2
        assert f"{flag.split()[0]} does not apply to an ad-hoc" in capsys.readouterr().err


class TestSchedulerCli:
    def test_engines_command_prints_matrix(self, capsys):
        assert main(["engines"]) == 0
        output = capsys.readouterr().out
        assert "engine x scheduler compatibility" in output
        for name in ("sequential", "matching", "weighted", "two-block",
                     "quiescing", "state-weighted"):
            assert name in output
        assert "yes *" in output  # per-engine defaults are marked

    def test_simulate_with_nonuniform_scheduler(self, capsys):
        code = main(
            [
                "simulate", "--protocol", "epidemic", "--n", "500",
                "--engine", "agent", "--scheduler", "two-block",
                "--scheduler-opt", "intra=0.9", "--seed", "3",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "two-block(intra=0.9) scheduler" in output

    def test_simulate_rejects_incompatible_scheduler(self, capsys):
        code = main(
            [
                "simulate", "--protocol", "epidemic", "--n", "100",
                "--engine", "count", "--scheduler", "matching",
            ]
        )
        assert code == 2
        assert "not compatible" in capsys.readouterr().err

    def test_scheduler_opt_requires_scheduler(self, capsys):
        code = main(
            [
                "simulate", "--protocol", "epidemic", "--n", "100",
                "--scheduler-opt", "intra=0.9",
            ]
        )
        assert code == 2
        assert "--scheduler" in capsys.readouterr().err

    def test_malformed_scheduler_opt_rejected(self, capsys):
        code = main(
            [
                "simulate", "--protocol", "epidemic", "--n", "100",
                "--engine", "agent", "--scheduler", "weighted",
                "--scheduler-opt", "lazy_rate",
            ]
        )
        assert code == 2
        assert "key=value" in capsys.readouterr().err

    def test_sweep_with_scheduler_and_cache(self, capsys, tmp_path):
        common = [
            "sweep", "--protocol", "epidemic", "--sizes", "200", "--runs", "1",
            "--engine", "vector", "--scheduler", "weighted",
            "--scheduler-opt", "lazy_rate=0.25",
            "--cache-dir", str(tmp_path), "--resume",
        ]
        assert main(common) == 0
        first = capsys.readouterr().out
        assert "weighted(lazy_rate=0.25) scheduler" in first
        assert "1 executed, 0 from cache" in first
        assert main(common) == 0
        second = capsys.readouterr().out
        assert "0 executed, 1 from cache" in second

    def test_sweep_rejects_incompatible_scheduler(self, capsys):
        code = main(
            [
                "sweep", "--protocol", "epidemic", "--sizes", "100",
                "--engine", "batched", "--scheduler", "quiescing",
            ]
        )
        assert code == 2
        assert "not compatible" in capsys.readouterr().err

    def test_state_weighted_rates_expressible_from_the_cli(self, capsys):
        code = main(
            [
                "simulate", "--protocol", "epidemic", "--n", "300",
                "--engine", "count", "--scheduler", "state-weighted",
                "--scheduler-opt", "rates=I:0.5", "--seed", "2",
            ]
        )
        assert code == 0
        assert "state-weighted(rates=I:0.5) scheduler" in capsys.readouterr().out

    def test_malformed_state_weighted_rates_exit_cleanly(self, capsys):
        code = main(
            [
                "simulate", "--protocol", "epidemic", "--n", "100",
                "--engine", "count", "--scheduler", "state-weighted",
                "--scheduler-opt", "rates=I-0.5",
            ]
        )
        assert code == 2
        assert "STATE:RATE" in capsys.readouterr().err

    def test_state_weighted_rate_typos_rejected(self, capsys):
        # Regression: a rate key naming no protocol state used to fall back
        # to default_rate for every state, silently running the uniform
        # scheduler under a non-uniform cache key.
        code = main(
            [
                "simulate", "--protocol", "epidemic", "--n", "100",
                "--engine", "count", "--scheduler", "state-weighted",
                "--scheduler-opt", "rates=X:0.5",
            ]
        )
        assert code == 2
        assert "outside the protocol's state set" in capsys.readouterr().err


class TestProtocolsCommand:
    def test_lists_all_three_registries(self, capsys):
        assert main(["protocols"]) == 0
        output = capsys.readouterr().out
        assert "finite-state" in output
        assert "figure2" in output and "vector" in output
        assert "approximate-majority" in output and "crn" in output
        assert "agent,count,batched,vector" in output


class TestSchedulerOptionValidation:
    def test_uncoercible_option_value_exits_cleanly(self, capsys):
        code = main(
            [
                "simulate",
                "--protocol",
                "epidemic",
                "--n",
                "100",
                "--engine",
                "agent",
                "--scheduler",
                "weighted",
                "--scheduler-opt",
                "lazy_rate=abc",
            ]
        )
        assert code == 2
        error = capsys.readouterr().err
        assert "lazy_rate" in error and "float" in error

    def test_unknown_option_key_exits_cleanly(self, capsys):
        code = main(
            [
                "simulate",
                "--protocol",
                "epidemic",
                "--n",
                "100",
                "--engine",
                "agent",
                "--scheduler",
                "weighted",
                "--scheduler-opt",
                "bogus=1",
            ]
        )
        assert code == 2
        assert "does not accept option 'bogus'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "engine,scheduler,option",
        [
            ("batched", "state-weighted", "rates=I:nan"),
            ("count", "state-weighted", "default_rate=nan"),
            ("agent", "quiescing", "start=nan"),
        ],
    )
    def test_non_finite_option_value_exits_cleanly(
        self, capsys, engine, scheduler, option
    ):
        # NaN passes a `< 0` check: these died with a numpy traceback, blamed
        # the wrong option, or ran a starvation window that never opens.
        code = main(
            [
                "simulate", "--protocol", "epidemic", "--n", "1000",
                "--engine", engine, "--scheduler", scheduler,
                "--scheduler-opt", option,
            ]
        )
        assert code == 2
        error = capsys.readouterr().err
        assert error.count("error:") == 1 and "finite" in error


class TestCRNCommands:
    def test_crn_requires_a_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["crn"])

    def test_info_lists_the_library(self, capsys):
        assert main(["crn", "info"]) == 0
        output = capsys.readouterr().out
        assert "approximate-majority" in output
        assert "sir" in output

    def test_info_shows_one_network(self, capsys):
        assert main(["crn", "info", "--crn", "sir"]) == 0
        output = capsys.readouterr().out
        assert "S + I -> I + I @ 2" in output
        assert "rate_scale" in output
        assert "thinned activity rates" in output

    def test_info_adhoc_network(self, capsys):
        code = main(
            ["crn", "info", "--reaction", "A + B -> B + B @ 0.5", "--init", "A:1,B:1"]
        )
        assert code == 0
        assert "A + B -> B + B @ 0.5" in capsys.readouterr().out

    def test_info_rejects_mixing_registry_and_adhoc(self, capsys):
        code = main(
            ["crn", "info", "--crn", "sir", "--reaction", "A + B -> B + B"]
        )
        assert code == 2
        assert "cannot be combined" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["agent", "count", "batched", "vector"])
    def test_simulate_workload_on_every_engine(self, capsys, engine):
        code = main(
            [
                "crn",
                "simulate",
                "--crn",
                "epidemic",
                "--n",
                "200",
                "--engine",
                engine,
                "--seed",
                "3",
            ]
        )
        assert code == 0
        record = printed_record(capsys.readouterr().out)
        assert record["converged"] is True
        assert record["extra"]["counts"] == {"I": 200}

    def test_simulate_thinned_mode(self, capsys):
        code = main(
            [
                "crn",
                "simulate",
                "--crn",
                "leader",
                "--n",
                "200",
                "--engine",
                "count",
                "--mode",
                "thinned",
            ]
        )
        assert code == 0
        record = printed_record(capsys.readouterr().out)
        assert record["extra"]["crn_mode"] == "thinned"
        assert record["extra"]["counts"]["L"] == 1

    def test_simulate_thinned_rejects_agent_engine(self, capsys):
        code = main(
            [
                "crn",
                "simulate",
                "--crn",
                "leader",
                "--engine",
                "agent",
                "--mode",
                "thinned",
            ]
        )
        assert code == 2
        assert "thinned" in capsys.readouterr().err

    def test_simulate_adhoc_runs_fixed_chemical_duration(self, capsys):
        code = main(
            [
                "crn",
                "simulate",
                "--reaction",
                "L + L -> L + F",
                "--init",
                "L:1",
                "--n",
                "300",
                "--chem-time",
                "2000",
                "--engine",
                "count",
            ]
        )
        assert code == 0
        output = capsys.readouterr().out
        assert "count[L]        : 1" in output
        assert "count[F]        : 299" in output
        # No predicate was evaluated, so no convergence claim is reported.
        assert "converged" not in output

    @pytest.mark.parametrize("engine", ENGINE_NAMES)
    def test_simulate_adhoc_zero_chemical_duration(self, engine, capsys):
        argv = (
            "simulate --reaction A+B->B+B --init A:0.5,B:0.5 --n 100 "
            f"--chem-time 0 --engine {engine}"
        )
        assert main(argv.split()) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        summary = dict(
            (key.strip(), value.strip())
            for key, value in (line.split(":", 1) for line in lines)
        )
        assert summary["interactions"] == "0"
        assert (summary["count[A]"], summary["count[B]"]) == ("50", "50")

    def test_simulate_adhoc_thinned_rejected(self, capsys):
        code = main(
            [
                "crn",
                "simulate",
                "--reaction",
                "L + L -> L + F",
                "--init",
                "L:1",
                "--chem-time",
                "5",
                "--engine",
                "count",
                "--mode",
                "thinned",
            ]
        )
        assert code == 2
        assert "chemical time" in capsys.readouterr().err

    def test_simulate_adhoc_needs_chem_time(self, capsys):
        code = main(
            ["crn", "simulate", "--reaction", "L + L -> L + F", "--init", "L:1"]
        )
        assert code == 2
        assert "--chem-time" in capsys.readouterr().err

    def test_simulate_malformed_reaction_exits_cleanly(self, capsys):
        code = main(
            ["crn", "simulate", "--reaction", "L + L => L + F", "--init", "L:1"]
        )
        assert code == 2
        assert "malformed" in capsys.readouterr().err.lower()

    def test_sweep_with_cache_and_resume(self, capsys, tmp_path):
        argv = [
            "crn",
            "sweep",
            "--crn",
            "epidemic",
            "--sizes",
            "100,200",
            "--runs",
            "2",
            "--engine",
            "count",
            "--cache-dir",
            str(tmp_path),
            "--resume",
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "4 executed, 0 from cache" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "0 executed, 4 from cache" in second

    def test_sweep_thinned_rejects_vector_engine(self, capsys):
        code = main(
            [
                "crn",
                "sweep",
                "--crn",
                "leader",
                "--engine",
                "vector",
                "--mode",
                "thinned",
                "--sizes",
                "100",
            ]
        )
        assert code == 2
        assert "thinned" in capsys.readouterr().err


class TestBackendFlag:
    """The array-backend seam surfaces on every engine-running subcommand."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--backend", "numpy"],
            ["sweep", "--backend", "numpy"],
            ["crn", "simulate", "--backend", "numpy"],
            ["crn", "sweep", "--crn", "epidemic", "--backend", "numpy"],
        ],
    )
    def test_backend_flag_parses(self, argv):
        assert build_parser().parse_args(argv).backend == "numpy"

    def test_unknown_backend_rejected_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--backend", "warp"])

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate"],
            ["sweep"],
            ["crn", "simulate"],
            ["crn", "sweep", "--crn", "epidemic"],
        ],
    )
    def test_numba_backend_rejected_at_parse_time(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, "--backend", "numba"])
        assert "invalid choice: 'numba'" in capsys.readouterr().err

    def test_engines_reports_backend_availability(self, capsys):
        assert main(["engines"]) == 0
        output = capsys.readouterr().out
        assert "array backends" in output
        for name in ("numpy", "native"):
            assert name in output
        assert "REPRO_BACKEND" in output

    def test_simulate_runs_with_explicit_numpy_backend(self, capsys):
        code = main(
            [
                "simulate",
                "--protocol",
                "epidemic",
                "--n",
                "2000",
                "--engine",
                "batched",
                "--backend",
                "numpy",
            ]
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out

    def test_sweep_runs_with_explicit_numpy_backend(self, capsys):
        code = main(
            [
                "sweep",
                "--protocol",
                "epidemic",
                "--sizes",
                "500,1000",
                "--runs",
                "2",
                "--engine",
                "batched",
                "--backend",
                "numpy",
            ]
        )
        assert code == 0
        assert "P(converged)" in capsys.readouterr().out

    def test_vector_sweep_accepts_backend(self, capsys):
        code = main(
            [
                "sweep",
                "--protocol",
                "figure2",
                "--engine",
                "vector",
                "--sizes",
                "1000",
                "--runs",
                "1",
                "--fast",
                "--backend",
                "numpy",
            ]
        )
        assert code == 0
        assert "P(converged)" in capsys.readouterr().out

    def test_crn_simulate_accepts_backend(self, capsys):
        code = main(
            [
                "crn",
                "simulate",
                "--crn",
                "leader",
                "--n",
                "500",
                "--engine",
                "batched",
                "--backend",
                "numpy",
            ]
        )
        assert code == 0
        assert "converged" in capsys.readouterr().out

    @pytest.mark.parametrize("prior", [None, "numpy"])
    def test_backend_flag_sets_the_variable_for_the_call_only(
        self, prior, monkeypatch, capsys
    ):
        import repro.cli as cli

        if prior is None:
            monkeypatch.delenv("REPRO_BACKEND", raising=False)
        else:
            monkeypatch.setenv("REPRO_BACKEND", prior)
        seen = []
        run_trial = cli.run_trial

        def spy(spec):
            seen.append(os.environ.get("REPRO_BACKEND"))
            return run_trial(spec)

        monkeypatch.setattr(cli, "run_trial", spy)
        argv = ["simulate", "--protocol", "epidemic", "--n", "500",
                "--backend", "native"]
        assert main(argv) == 0
        assert seen == ["native"]
        assert os.environ.get("REPRO_BACKEND") == prior

    @pytest.mark.parametrize(
        "argv",
        [
            ["--protocol", "epidemic", "--engine", "agent"],
            ["--protocol", "epidemic", "--engine", "count"],
            ["--protocol", "epidemic", "--engine", "vector"],
            ["--protocol", "epidemic", "--engine", "batched", "--batch-size", "40"],
            ["--protocol", "epidemic", "--engine", "multiscale"],
            ["--protocol", "figure2", "--fast"],
            ["--protocol", "leader-terminating", "--fast", "--phase-count", "8"],
            ["--crn", "sir"],
        ],
        ids=["agent", "count", "vector", "batched", "multiscale", "figure2",
             "leader-terminating", "crn-sir"],
    )
    def test_one_key_per_trial_on_every_backend(self, argv, monkeypatch):
        # `--backend NAME` is REPRO_BACKEND for one call: neither the flag
        # nor the variable reaches a spec, so every backend shares keys.
        import repro.cli as cli

        keys = set()
        for backend in (None, "numpy", "native"):
            flag = [] if backend is None else ["--backend", backend]
            if backend is None:
                monkeypatch.delenv("REPRO_BACKEND", raising=False)
            else:
                monkeypatch.setenv("REPRO_BACKEND", backend)
            args = build_parser().parse_args(["sweep", *argv, *flag])
            specs = cli._specs_from_args(
                args, cli._workload_from_args(args), [1000], 2
            )
            keys.add(tuple(spec.cache_key() for spec in specs))
        assert len(keys) == 1

    def test_one_store_serves_both_backends(self, capsys, tmp_path):
        args = ["sweep", "--protocol", "epidemic", "--sizes", "2000",
                "--runs", "2", "--engine", "batched",
                "--store", f"sqlite:{tmp_path / 'one-key.db'}"]
        assert main([*args, "--backend", "native"]) == 0
        assert "2 executed, 0 from cache" in capsys.readouterr().out
        assert main([*args, "--backend", "numpy"]) == 0
        assert "0 executed, 2 from cache" in capsys.readouterr().out
        assert main(args) == 0
        assert "0 executed, 2 from cache" in capsys.readouterr().out


class TestStoreCli:
    """--store plumbing on sweeps plus the `repro store` subcommands."""

    @staticmethod
    def _sweep_args(store_url, sizes="64,128"):
        return [
            "sweep",
            "--protocol",
            "epidemic",
            "--sizes",
            sizes,
            "--runs",
            "2",
            "--engine",
            "count",
            "--store",
            store_url,
        ]

    def test_store_subcommands_registered(self):
        parser = build_parser()
        args = parser.parse_args(["store", "status", "--store", "sqlite:x"])
        assert args.command == "store"
        args = parser.parse_args(["store", "serve", "--db", "x.sqlite"])
        assert args.command == "store"

    def test_store_serve_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["store", "serve", "--help"])
        assert excinfo.value.code == 0
        assert "--db" in capsys.readouterr().out

    def test_sweep_store_and_cache_dir_are_mutually_exclusive(
        self, capsys, tmp_path
    ):
        code = main(
            self._sweep_args(f"sqlite:{tmp_path / 'db.sqlite'}")
            + ["--cache-dir", str(tmp_path)]
        )
        assert code == 2
        assert "not both" in capsys.readouterr().err

    def test_sweep_sqlite_store_resumes(self, capsys, tmp_path):
        args = self._sweep_args(f"sqlite:{tmp_path / 'db.sqlite'}")
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "4 total, 4 executed, 0 from cache" in first
        assert "store: sqlite:" in first
        # Identical sweep against the same store: nothing left to execute.
        assert main(args) == 0
        assert "0 executed, 4 from cache" in capsys.readouterr().out
        # Growing the sweep executes only the new trials.
        assert main(self._sweep_args(f"sqlite:{tmp_path / 'db.sqlite'}",
                                     sizes="64,128,192")) == 0
        assert "6 total, 2 executed, 4 from cache" in capsys.readouterr().out

    def test_sweep_sqlite_store_resumes_after_midsweep_kill(
        self, capsys, tmp_path
    ):
        import sqlite3
        import time as _time

        db = tmp_path / "db.sqlite"
        args = self._sweep_args(f"sqlite:{db}")
        assert main(args) == 0
        capsys.readouterr()
        # Emulate a driver killed mid-trial: one record never landed and the
        # dead owner still holds an (expired) lease on its key.
        connection = sqlite3.connect(db)
        with connection:
            (key,) = connection.execute(
                "SELECT key FROM results LIMIT 1"
            ).fetchone()
            connection.execute("DELETE FROM results WHERE key = ?", (key,))
            now = _time.time()
            connection.execute(
                "INSERT INTO leases (key, owner, acquired_at, expires_at) "
                "VALUES (?, ?, ?, ?)",
                (key, "killed-driver", now - 10.0, now - 5.0),
            )
        connection.close()
        assert main(args) == 0
        assert "4 total, 1 executed, 3 from cache" in capsys.readouterr().out

    def test_crn_sweep_with_sqlite_store(self, capsys, tmp_path):
        args = [
            "crn",
            "sweep",
            "--crn",
            "epidemic",
            "--sizes",
            "100",
            "--runs",
            "2",
            "--engine",
            "count",
            "--store",
            f"sqlite:{tmp_path / 'db.sqlite'}",
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "2 total, 2 executed, 0 from cache" in first
        assert "store: sqlite:" in first
        assert main(args) == 0
        assert "0 executed, 2 from cache" in capsys.readouterr().out

    def test_store_status_reports_counts_and_stale_leases(
        self, capsys, tmp_path
    ):
        from repro.store.sqlite import SqliteStore

        url = f"sqlite:{tmp_path / 'db.sqlite'}"
        assert main(self._sweep_args(url)) == 0
        with SqliteStore(tmp_path / "db.sqlite") as store:
            store.claim("unfinished-key", lease=0.01, owner="dead-driver")
        import time as _time

        _time.sleep(0.05)
        capsys.readouterr()
        assert main(["store", "status", "--store", url]) == 0
        output = capsys.readouterr().out
        assert "completed trials" in output and ": 4" in output
        assert "stale leases (reclaimable)" in output
        assert "dead-driver" in output and "STALE" in output
        assert "throughput by workload" in output
        # Finite-state records carry no protocol name, so the workload label
        # degrades to the engine name.
        assert "count" in output

    def test_store_status_reads_a_cache_dir_cache(self, capsys, tmp_path):
        # A --cache-dir sweep writes the cache <workload>-<engine>.sqlite,
        # which status reads as any sqlite store.
        cache = tmp_path / "cache"
        for runs, engine in (("1", "count"), ("2", "batched")):
            assert main([
                "sweep", "--protocol", "epidemic", "--sizes", "200", "--runs",
                runs, "--engine", engine, "--cache-dir", str(cache),
            ]) == 0
        capsys.readouterr()
        url = f"sqlite:{cache / 'epidemic-batched.sqlite'}"
        assert main(["store", "status", "--store", url]) == 0
        output = capsys.readouterr().out
        assert re.search(r"completed trials +: 2\n", output)
        assert "batched" in output

    def test_sweep_rejects_a_jsonl_store_url(self, capsys, tmp_path):
        code = main([
            "sweep", "--protocol", "epidemic", "--sizes", "200", "--runs", "1",
            "--store", f"jsonl:{tmp_path / 'cache'}",
        ])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("repro sweep: error: ")
        assert "--cache-dir" in line and "sqlite:" in line
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "url", ["sqlite:{root}/missing/none.sqlite", "jsonl:{root}/missing/cache"]
    )
    def test_store_status_of_a_missing_store_creates_nothing(
        self, url, capsys, tmp_path
    ):
        assert main(["store", "status", "--store", url.format(root=tmp_path)]) == 2
        error = capsys.readouterr().err
        assert "Traceback" not in error
        (line,) = error.splitlines()
        assert line.startswith("repro store status: error: ")
        assert not (tmp_path / "missing").exists()

    def test_store_status_rejects_bad_url(self, capsys):
        assert main(["store", "status", "--store", "warp:x"]) == 2
        assert "error" in capsys.readouterr().err
