"""Tests for the command-line interface."""

import ctypes
import os
import types

import pytest

from repro import cli
from repro.cli import build_parser, main


class TestParser:
    def test_list_command_parses(self):
        args = build_parser().parse_args(["list"])
        assert args.command == "list"

    def test_run_command_defaults(self):
        args = build_parser().parse_args(["run", "table1"])
        assert args.experiment == "table1"
        assert args.scale == "fast"
        assert args.seed == 0
        assert args.output is None

    def test_run_command_options(self):
        args = build_parser().parse_args(
            ["run", "fig6", "--scale", "smoke", "--seed", "3",
             "--output", "out.txt"])
        assert args.scale == "smoke"
        assert args.seed == 3
        assert args.output == "out.txt"

    def test_invalid_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig6", "--scale", "huge"])

    def test_shard_worker_command_parses(self):
        args = build_parser().parse_args(["shard-worker", "--port", "7600"])
        assert args.command == "shard-worker"
        assert args.host == "127.0.0.1"
        assert args.port == 7600
        assert args.read_deadline is None

    def test_shard_worker_accepts_session_flags(self):
        args = build_parser().parse_args(
            ["shard-worker", "--read-deadline", "30"])
        assert args.read_deadline == 30.0

    def test_shard_worker_rejects_bad_session_flags(self, capsys):
        assert main(["shard-worker", "--read-deadline", "0"]) == 2
        assert "--read-deadline" in capsys.readouterr().err
        # A shard serves one parent: there is no session cap to set.
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shard-worker", "--max-sessions", "3"])

    def test_run_accepts_shards(self):
        args = build_parser().parse_args(
            ["run", "fig6", "--backend", "sharded",
             "--shards", "node-a:7600,node-b:7600"])
        assert args.backend == "sharded"
        assert args.shards == "node-a:7600,node-b:7600"

    def test_run_accepts_failure_policy_flags(self):
        args = build_parser().parse_args(
            ["run", "fig6", "--backend", "sharded", "--workers", "3",
             "--on-shard-failure", "rebalance"])
        assert args.on_shard_failure == "rebalance"

    def test_failure_policy_defaults_off(self):
        args = build_parser().parse_args(["run", "fig6"])
        assert args.on_shard_failure is None

    def test_invalid_failure_policy_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "fig6", "--backend", "sharded",
                 "--on-shard-failure", "retry-forever"])

    @pytest.mark.parametrize("flag", [
        "--heartbeat-interval", "--failover-attempts", "--drain-timeout",
        "--reconnect-attempts", "--connect-timeout", "--retry-backoff",
        "--retry-jitter"])
    def test_failure_tuning_flags_are_gone(self, flag, capsys):
        """Detection and retries are measured constants, not flags."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig6", "--backend",
                                       "sharded", flag, "1"])
        assert "unrecognized arguments" in capsys.readouterr().err


class TestMain:
    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for identifier in ("fig1", "fig2", "fig5", "fig6", "fig7", "table1",
                           "headline"):
            assert identifier in output

    def test_scales_prints_presets(self, capsys):
        assert main(["scales"]) == 0
        output = capsys.readouterr().out
        assert "smoke" in output and "fast" in output and "full" in output

    def test_no_command_shows_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_run_unknown_experiment_fails(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "error" in capsys.readouterr().err.lower()

    def test_backend_flag_warns_on_profiling_experiment(self, capsys):
        """table1 runs no trainings: the flags must not vanish silently."""
        assert main(["run", "table1", "--scale", "smoke",
                     "--backend", "persistent", "--workers", "2"]) == 0
        err = capsys.readouterr().err.lower()
        assert "warning" in err and "--backend" in err

    def test_workers_with_serial_backend_warns(self, capsys):
        assert main(["run", "table1", "--scale", "smoke",
                     "--workers", "4"]) == 0
        err = capsys.readouterr().err.lower()
        assert "warning" in err and "--workers" in err

    def test_run_table1_smoke(self, capsys, tmp_path):
        output_file = os.path.join(tmp_path, "table1.txt")
        code = main(["run", "table1", "--scale", "smoke",
                     "--output", output_file])
        assert code == 0
        printed = capsys.readouterr().out
        assert "Table I" in printed
        with open(output_file, encoding="utf-8") as handle:
            assert "Table I" in handle.read()

    def test_run_fig1_smoke(self, capsys):
        assert main(["run", "fig1", "--scale", "smoke"]) == 0
        assert "idle" in capsys.readouterr().out.lower()

    def test_shards_without_sharded_backend_fails(self, capsys):
        assert main(["run", "fig6", "--scale", "smoke",
                     "--shards", "localhost:7600"]) == 2
        assert "'sharded' backend" in capsys.readouterr().err

    def test_on_shard_failure_requires_resident_backend(self, capsys):
        assert main(["run", "fig6", "--scale", "smoke",
                     "--on-shard-failure", "rebalance"]) == 2
        assert "on_shard_failure" in capsys.readouterr().err

    def test_run_fig6_persistent_rebalance_smoke(self, capsys):
        """Local slots take the failure policy too."""
        assert main(["run", "fig6", "--scale", "smoke",
                     "--backend", "persistent", "--workers", "2",
                     "--on-shard-failure", "rebalance"]) == 0
        assert "cycle" in capsys.readouterr().out.lower()

    def test_run_fig6_sharded_smoke(self, capsys):
        """CLI-level wiring: fig6 on two auto-spawned localhost shards."""
        assert main(["run", "fig6", "--scale", "smoke",
                     "--backend", "sharded", "--workers", "2"]) == 0
        assert "cycle" in capsys.readouterr().out.lower()

    def test_run_fig6_sharded_rebalance_smoke(self, capsys):
        """CLI-level wiring of the fault-tolerance flags end to end."""
        assert main(["run", "fig6", "--scale", "smoke",
                     "--backend", "sharded", "--workers", "2",
                     "--on-shard-failure", "rebalance"]) == 0
        assert "cycle" in capsys.readouterr().out.lower()


class TestArgumentValidation:
    """Malformed values must die with a one-line error, not a traceback
    deep inside pool construction or a socket connect."""

    def test_zero_workers_rejected(self, capsys):
        assert main(["run", "fig6", "--scale", "smoke",
                     "--backend", "persistent", "--workers", "0"]) == 2
        assert "--workers must be positive" in capsys.readouterr().err

    def test_negative_workers_rejected(self, capsys):
        assert main(["run", "fig6", "--scale", "smoke",
                     "--backend", "persistent", "--workers", "-3"]) == 2
        assert "--workers must be positive" in capsys.readouterr().err

    def test_portless_shard_entry_rejected(self, capsys):
        assert main(["run", "fig6", "--scale", "smoke",
                     "--backend", "sharded",
                     "--shards", "node-a:7600,node-b"]) == 2
        err = capsys.readouterr().err
        assert "'node-b'" in err and "host:port" in err

    def test_non_numeric_shard_port_rejected(self, capsys):
        assert main(["run", "fig6", "--scale", "smoke",
                     "--backend", "sharded",
                     "--shards", "node-a:http"]) == 2
        assert "host:port" in capsys.readouterr().err

    @pytest.mark.parametrize("shards", ["127.0.0.1:70000", "h:0", "h:-1"])
    def test_shard_port_outside_1_to_65535_rejected(self, capsys, shards):
        # Refused before any connect: one line on stderr, no traceback.
        assert main(["run", "fig6", "--scale", "smoke",
                     "--backend", "sharded", "--shards", shards]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert "host:port" in err and repr(shards) in err

    def test_empty_shard_host_rejected(self, capsys):
        assert main(["run", "fig6", "--scale", "smoke",
                     "--backend", "sharded", "--shards", ":7600"]) == 2
        assert "host:port" in capsys.readouterr().err


class TestAggregationFlag:
    """Every backend folds where it trains: there is no topology to
    choose, so ``--aggregation`` is gone."""

    def test_aggregation_defaults_off(self):
        args = build_parser().parse_args(["run", "fig6"])
        assert not hasattr(args, "aggregation")

    @pytest.mark.parametrize("mode", ["flat", "hierarchical"])
    def test_aggregation_flag_exits_2(self, mode):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig6", "--scale", "smoke", "--aggregation", mode])
        assert excinfo.value.code == 2

    def test_invalid_aggregation_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["run", "fig6", "--aggregation", "tree"])

    def test_run_fig6_hierarchical_smoke(self, capsys):
        """CLI-level wiring of the in-slot fold end to end."""
        assert main(["run", "fig6", "--scale", "smoke",
                     "--backend", "persistent", "--workers", "2"]) == 0
        assert "cycle" in capsys.readouterr().out.lower()


class TestRemovedOptions:
    """The thread/process backends and the arena/delta/zlib/fusion
    switches are gone: argparse refuses them (exit 2) instead of silently
    ignoring them.  Stacking eligible clients is what the resident
    backends always do."""

    @pytest.mark.parametrize("argv", [
        ["--backend", "process"],
        ["--backend", "thread"],
        ["--backend", "persistent", "--weight-arena", "shm"],
        ["--backend", "persistent", "--no-delta-shipping"],
        ["--backend", "persistent", "--wire-compression", "zlib"],
        ["--backend", "persistent", "--fusion", "stacked"],
    ], ids=["process", "thread", "weight-arena", "no-delta-shipping",
            "wire-compression", "fusion"])
    def test_removed_options_exit_2(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "fig6", "--scale", "smoke"] + argv)
        assert excinfo.value.code == 2

    def test_run_help_lists_three_backends(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "--help"])
        text = capsys.readouterr().out
        assert "{persistent,serial,sharded}" in text
        assert "--weight-arena" not in text
        assert "--no-delta-shipping" not in text
        assert "--wire-compression" not in text
        assert "--fusion" not in text


class TestShardHeapPolicy:
    """A ``repro shard-worker`` sets its allocator policy once, before it
    serves; nothing else in the process does."""

    class _FakeMallopt:
        def __init__(self):
            self.calls = []

        def __call__(self, param, value):
            self.calls.append((param, value))
            return 1

    def test_sets_both_thresholds(self):
        mallopt = self._FakeMallopt()
        cli._keep_heap(types.SimpleNamespace(mallopt=mallopt))
        assert mallopt.argtypes == (ctypes.c_int, ctypes.c_int)
        assert mallopt.calls == [
            (cli.M_MMAP_THRESHOLD, cli.SHARD_MMAP_THRESHOLD),
            (cli.M_TRIM_THRESHOLD, cli.SHARD_TRIM_THRESHOLD)]
        assert (cli.M_MMAP_THRESHOLD, cli.M_TRIM_THRESHOLD) == (-3, -1)
        assert cli.SHARD_MMAP_THRESHOLD == 32 << 20
        assert cli.SHARD_TRIM_THRESHOLD == 64 << 20

    def test_no_mallopt_is_a_no_op(self):
        assert cli._keep_heap(object()) is None

    def test_shard_worker_sets_it_before_serving(self, monkeypatch):
        from repro.fl import transport
        events = []
        monkeypatch.setattr(cli, "_keep_heap",
                            lambda: events.append("keep_heap"))
        monkeypatch.setattr(transport, "serve_shard",
                            lambda *args, **kwargs: events.append("serve"))
        assert main(["shard-worker", "--port", "0"]) == 0
        assert events == ["keep_heap", "serve"]
        # A rejected flag exits before the policy is set.
        events.clear()
        assert main(["shard-worker", "--read-deadline", "0"]) == 2
        assert events == []
