"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["nonsense"])

    def test_seed_default(self):
        args = build_parser().parse_args(["table2"])
        assert args.seed == 0

    def test_seed_override(self):
        args = build_parser().parse_args(["table5", "--seed", "7"])
        assert args.seed == 7

    def test_accuracy_epochs_flag(self):
        args = build_parser().parse_args(["accuracy", "--epochs", "5"])
        assert args.epochs == 5

    def test_table5_codec_default(self):
        args = build_parser().parse_args(["table5"])
        assert args.codec == "simplified"

    def test_table5_codec_choices_follow_registry(self):
        args = build_parser().parse_args(["table5", "--codec", "huffman"])
        assert args.codec == "huffman"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table5", "--codec", "nonsense"])


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out
        assert "Conv 3x3" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "Table II" in out
        assert "Block 13" in out

    def test_fig3(self, capsys):
        assert main(["fig3"]) == 0
        assert "Fig. 3" in capsys.readouterr().out

    def test_table5(self, capsys):
        assert main(["table5"]) == 0
        out = capsys.readouterr().out
        assert "Table V" in out
        assert "Average" in out

    def test_table5_with_huffman_codec(self, capsys):
        assert main(["table5", "--codec", "huffman"]) == 0
        out = capsys.readouterr().out
        assert "Table V" in out
        assert "codec: huffman" in out

    def test_coders(self, capsys):
        assert main(["coders"]) == 0
        out = capsys.readouterr().out
        assert "Coder comparison" in out
        assert "Huffman" in out

    def test_mix(self, capsys):
        assert main(["mix"]) == 0
        assert "code length" in capsys.readouterr().out.lower()

    def test_model(self, capsys):
        assert main(["model"]) == 0
        assert "whole-model ratio" in capsys.readouterr().out

    def test_feasibility(self, capsys):
        assert main(["feasibility"]) == 0
        assert "LP bound" in capsys.readouterr().out

    def test_accuracy_short_run(self, capsys):
        assert main(["accuracy", "--epochs", "2"]) == 0
        assert "accuracy" in capsys.readouterr().out.lower()


class TestBackendsCommand:
    def test_lists_both_registries(self, capsys):
        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "Simulation backends" in out
        assert "inference" in out
        assert "Workload models" in out
        assert "small-bnn" in out
        assert "Fig. 6" in out  # paper mapping column is populated

    def test_lists_contraction_strategies(self, capsys):
        from repro.bnn.ops import CONTRACTION_STRATEGIES

        assert main(["backends"]) == 0
        out = capsys.readouterr().out
        assert "Contraction strategies" in out
        for strategy in CONTRACTION_STRATEGIES:
            assert strategy in out
        assert "gemm-threaded" not in out
        assert "default threads" in out
        assert "16,777,216 MACs" in out  # the automatic width's floor


class TestInferCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["infer"])
        assert args.artifact is None
        assert args.model == "small-bnn"
        assert args.batch == 32
        assert args.engine == "packed"
        assert args.cache_size is None  # every packed step

    def test_runnable_model_infer(self, capsys):
        assert main(["infer", "--images", "8", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "images/sec" in out
        assert "4 packed" in out

    def test_infer_marks_folded_edges(self, capsys):
        assert main(["infer", "--images", "4", "--batch", "4"]) == 0
        out = capsys.readouterr().out
        # small-bnn: every packed conv but the last (it feeds AvgPool)
        assert "3 glue edges folded to bits" in out
        assert out.count("folded -> bits") == 3

    def test_artifact_infer_reports_cache(self, capsys, tmp_path):
        import numpy as np

        from repro.bnn.reactnet import build_small_bnn
        from repro.deploy import save_compressed_model

        model = build_small_bnn(
            in_channels=1, num_classes=4, image_size=8, channels=(8, 16),
            seed=5,
        )
        model.eval()
        path = tmp_path / "model.npz"
        save_compressed_model(model, path)
        assert main(
            ["infer", "--artifact", str(path), "--images", "8",
             "--batch", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "kernel cache" in out
        assert "images/sec" in out

    def test_reference_engine(self, capsys):
        assert main(
            ["infer", "--images", "4", "--batch", "2",
             "--engine", "reference"]
        ) == 0
        assert "reference" in capsys.readouterr().out

    def test_threaded_strategy_reports_telemetry(self, capsys):
        assert main(
            ["infer", "--images", "8", "--batch", "4",
             "--strategy", "popcount", "--threads", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "contraction[popcount]" in out
        assert "max 2 threads" in out

    def test_parser_strategy_choices(self):
        from repro.bnn.ops import CONTRACTION_STRATEGIES

        args = build_parser().parse_args(["infer"])
        assert args.strategy == "gemm"
        assert args.threads is None
        for strategy in CONTRACTION_STRATEGIES:
            parsed = build_parser().parse_args(
                ["infer", "--strategy", strategy]
            )
            assert parsed.strategy == strategy
        with pytest.raises(SystemExit):
            build_parser().parse_args(["infer", "--strategy", "simd"])


class TestServeCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve", "--artifact", "m.npz"])
        assert args.artifact == "m.npz"
        assert args.tenant == "default"
        assert args.max_batch == 32
        assert args.max_wait_ms == 2.0
        assert args.queue_depth == 256

    def test_artifact_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])

    @pytest.mark.parametrize("flag", ["--threads", "--cache-size"])
    def test_plan_knobs_rejected(self, flag):
        """Serving compiles the default plan; REPRO_THREADS pins width."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["serve", "--artifact", "m.npz", flag, "1"]
            )

    def test_serve_prints_metrics_json(self, capsys, tmp_path):
        from repro.bnn.reactnet import build_small_bnn
        from repro.deploy import save_compressed_model

        model = build_small_bnn(
            in_channels=1, num_classes=4, image_size=8, channels=(8, 16),
            seed=5,
        )
        model.eval()
        path = tmp_path / "model.npz"
        save_compressed_model(model, path)
        assert main(
            ["serve", "--artifact", str(path), "--tenant", "edge",
             "--requests", "12", "--concurrency", "4", "--max-batch", "4"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        tenant = payload["tenants"]["edge"]
        assert tenant["completed"] == 12
        assert tenant["failed"] == 0
        assert sum(tenant["batch_histogram"].values()) == tenant["batches"]
        assert payload["load"]["requests"] == 12
        assert payload["load"]["requests_per_second"] > 0
        assert payload["config"]["max_batch"] == 4
        assert payload["registry"]["edge"]["compiled"] is True


class TestFleetCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["fleet", "run", "--artifact", "m.npz"]
        )
        assert args.action == "run"
        assert args.artifact == "m.npz"
        assert args.tenant == "default"
        assert args.workers == 2
        assert args.requests == 64
        assert args.batch == 16
        assert args.concurrency == 4
        assert args.rollout_to is None

    def test_artifact_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "run"])

    @pytest.mark.parametrize("flag", ["--threads", "--cache-size"])
    def test_plan_knobs_rejected(self, flag):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet", "run", "--artifact", "m.npz", flag, "1"]
            )

    def test_action_choices(self):
        for action in ("run", "rollout", "status"):
            args = build_parser().parse_args(
                ["fleet", action, "--artifact", "m.npz"]
            )
            assert args.action == action
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["fleet", "nonsense", "--artifact", "m.npz"]
            )

    def test_fleet_run_prints_status_json(self, capsys, tmp_path):
        from repro.bnn.reactnet import build_small_bnn
        from repro.deploy import save_compressed_model

        model = build_small_bnn(
            in_channels=1, num_classes=4, image_size=8, channels=(8, 16),
            seed=5,
        )
        model.eval()
        path = tmp_path / "model.npz"
        save_compressed_model(model, path)
        assert main(
            ["fleet", "run", "--artifact", str(path), "--tenant", "edge",
             "--workers", "2", "--requests", "24", "--batch", "4",
             "--concurrency", "3"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["load"]["requests"] == 24
        assert payload["load"]["failed"] == 0
        status = payload["status"]
        assert set(status["workers"]) == {"w0", "w1"}
        assert all(w["healthy"] for w in status["workers"].values())
        assert "edge" in status["tenants"]
        assert status["counters"]["dispatched"] >= 1


class TestStoreCommand:
    @pytest.fixture()
    def artifact(self, tmp_path):
        from repro.bnn.reactnet import build_small_bnn
        from repro.deploy import save_compressed_model

        model = build_small_bnn(
            in_channels=1, num_classes=4, image_size=8, channels=(8, 16),
            seed=5,
        )
        model.eval()
        path = tmp_path / "model.npz"
        save_compressed_model(model, path)
        return path

    def test_parser_requires_store(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["store", "ls"])
        args = build_parser().parse_args(
            ["store", "import", "m.npz", "--store", "s", "--name", "v1"]
        )
        assert (args.action, args.target) == ("import", "m.npz")
        assert (args.store, args.name) == ("s", "v1")

    def test_import_ls_pin_rm_gc_lifecycle(self, capsys, artifact, tmp_path):
        store = str(tmp_path / "store")
        assert main(
            ["store", "import", str(artifact), "--store", store,
             "--name", "v1"]
        ) == 0
        out = capsys.readouterr().out
        assert f"as {store}#v1" in out

        assert main(["store", "ls", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "v1" in out and "dedup" in out

        assert main(["store", "pin", "v1", "--store", store]) == 0
        assert "pinned manifest" in capsys.readouterr().out
        assert main(["store", "rm", "v1", "--store", store]) == 0
        capsys.readouterr()

        # pinned: gc removes nothing, unpin then gc sweeps everything
        assert main(["store", "gc", "--store", store]) == 0
        assert "removed 0 blobs" in capsys.readouterr().out
        manifest = next(
            (tmp_path / "store" / "manifests").glob("*.json")
        ).stem
        assert main(["store", "unpin", manifest, "--store", store]) == 0
        capsys.readouterr()
        assert main(["store", "gc", "--store", store]) == 0
        assert "0 manifests" not in capsys.readouterr().out

    def test_gc_dry_run_lists_without_deleting(
        self, capsys, artifact, tmp_path
    ):
        store = str(tmp_path / "store")
        assert main(
            ["store", "import", str(artifact), "--store", store,
             "--name", "v1"]
        ) == 0
        assert main(["store", "rm", "v1", "--store", store]) == 0
        capsys.readouterr()

        assert main(["store", "gc", "--store", store, "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "gc (dry run): would remove" in out
        assert "  manifest " in out and "  blob " in out

        # the audit deleted nothing: the real sweep still finds it all
        assert main(["store", "gc", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "would remove" not in out
        assert "removed 0 blobs" not in out

    def test_infer_accepts_store_refs(self, capsys, artifact, tmp_path):
        store = str(tmp_path / "store")
        assert main(
            ["store", "import", str(artifact), "--store", store,
             "--name", "v1"]
        ) == 0
        capsys.readouterr()
        assert main(
            ["infer", "--artifact", f"{store}#v1", "--images", "8",
             "--batch", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "images/sec" in out

    def test_fsck_clean_store(self, capsys, artifact, tmp_path):
        store = str(tmp_path / "store")
        assert main(
            ["store", "import", str(artifact), "--store", store,
             "--name", "v1"]
        ) == 0
        capsys.readouterr()
        assert main(["store", "fsck", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "store is clean" in out
        assert "checked" in out and "manifests" in out
        assert "corrupt" not in out

    def test_fsck_reports_and_repairs_corruption(
        self, capsys, artifact, tmp_path
    ):
        from repro.store import ArtifactStore

        store = str(tmp_path / "store")
        assert main(
            ["store", "import", str(artifact), "--store", store,
             "--name", "v1"]
        ) == 0
        capsys.readouterr()
        handle = ArtifactStore(store)
        key = next(iter(handle.blobs.keys()))
        blob_path = handle.blobs.path(key)
        raw = bytearray(blob_path.read_bytes())
        raw[0] ^= 0x01
        blob_path.write_bytes(bytes(raw))
        (handle.root / "refs" / ".v1.7.tmp").write_text("junk")

        assert main(["store", "fsck", "--store", store]) == 0
        out = capsys.readouterr().out
        assert "PROBLEMS FOUND" in out
        assert f"corrupt blob: {key}" in out
        assert "stale tmp:" in out

        assert main(["store", "fsck", "--store", store, "--repair"]) == 0
        out = capsys.readouterr().out
        assert "fsck (repair)" in out
        assert "quarantined 1 damaged files" in out
        # damaged blob is out of the tree; a re-import heals the store
        assert main(
            ["store", "import", str(artifact), "--store", store,
             "--name", "v1"]
        ) == 0
        capsys.readouterr()
        assert main(["store", "fsck", "--store", store]) == 0
        assert "store is clean" in capsys.readouterr().out


class TestSimulateCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.backends == ["analytic"]
        assert args.model == "reactnet"
        assert not args.json

    def test_backend_choices_follow_registry(self):
        args = build_parser().parse_args(
            ["simulate", "--backends", "rtl", "energy"]
        )
        assert args.backends == ["rtl", "energy"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--backends", "nonsense"])

    def test_simulate_rtl_json(self, capsys):
        assert main(
            ["simulate", "--model", "reactnet-head", "--backends", "rtl",
             "--json"]
        ) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"]["model"] == "reactnet-head"
        assert payload["sections"]["rtl"]["decode_verified"] is True

    def test_simulate_renders_sections(self, capsys):
        assert main(
            ["simulate", "--model", "reactnet-head", "--backends",
             "pipeline", "--modes", "baseline"]
        ) == 0
        out = capsys.readouterr().out
        assert "[pipeline]" in out
        assert "hw_ldps" in out


class TestSweepCommand:
    def test_axis_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["sweep"])

    def test_axis_parsing(self):
        args = build_parser().parse_args(
            ["sweep", "--axis", "system.memory.latency_cycles=[40,100]"]
        )
        assert args.axis == [("system.memory.latency_cycles", [40, 100])]

    def test_axis_nested_lists_become_tuples(self):
        args = build_parser().parse_args(
            ["sweep", "--axis",
             "pipeline.codec_params.capacities=[[64,512],[256,256]]"]
        )
        (_, values), = args.axis
        assert values == [(64, 512), (256, 256)]

    def test_malformed_axis_rejected(self):
        for bad in ("no_equals", "path=notjson", "path=[]", "path=42"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sweep", "--axis", bad])

    def test_sweep_runs_grid(self, capsys):
        assert main(
            ["sweep", "--model", "reactnet-head",
             "--modes", "baseline", "hw_compressed",
             "--axis", "system.memory.latency_cycles=[40,400]"]
        ) == 0
        out = capsys.readouterr().out
        assert "sweep over 2 scenarios" in out
        assert "hw speedup" in out


class TestBenchCommand:
    @staticmethod
    def _artifact(tmp_path, name, sections):
        path = tmp_path / f"BENCH_{name}.json"
        path.write_text(json.dumps(sections))
        return path

    def test_parser_defaults(self):
        args = build_parser().parse_args(["bench", "trend"])
        assert args.action == "trend"
        assert args.dir is None
        assert args.only is None
        assert args.last == 5

    def test_trend_renders_history_rows(self, capsys, tmp_path):
        self._artifact(
            tmp_path,
            "infer",
            {
                "threaded_contraction": {
                    "speedup": 2.7,
                    "history": [
                        {"at": "2026-08-01T00:00:00+00:00",
                         "reduced": False, "metric": "speedup",
                         "value": 2.5},
                        {"at": "2026-08-07T00:00:00+00:00",
                         "reduced": True, "metric": "speedup",
                         "value": 2.7},
                    ],
                },
                "no_history_yet": {"speedup": 1.0, "history": []},
            },
        )
        assert main(["bench", "trend", "--dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "perf trajectory" in out
        assert "threaded_contraction" in out
        assert "2026-08-01T00:00:00+00:00" in out
        assert "2.50" in out and "2.70" in out
        # a section with no history still shows up as a placeholder row
        assert "no_history_yet" in out

    def test_trend_last_bounds_rows(self, capsys, tmp_path):
        history = [
            {"at": f"2026-08-0{day}T00:00:00+00:00", "reduced": False,
             "metric": "speedup", "value": float(day)}
            for day in range(1, 8)
        ]
        self._artifact(
            tmp_path, "rtl", {"replay": {"history": history}}
        )
        assert main(
            ["bench", "trend", "--dir", str(tmp_path), "--last", "2"]
        ) == 0
        out = capsys.readouterr().out
        assert "6.00" in out and "7.00" in out
        assert "5.00" not in out

    def test_trend_only_filters_artifacts(self, capsys, tmp_path):
        for name in ("infer", "rtl"):
            self._artifact(tmp_path, name, {"section": {"history": []}})
        assert main(
            ["bench", "trend", "--dir", str(tmp_path), "--only", "rtl"]
        ) == 0
        out = capsys.readouterr().out
        assert "rtl" in out
        assert "infer" not in out

    def test_trend_empty_dir_fails(self, tmp_path):
        with pytest.raises(SystemExit, match="no BENCH"):
            main(["bench", "trend", "--dir", str(tmp_path)])

    def test_trend_on_committed_artifacts(self, capsys):
        from pathlib import Path

        repo = Path(__file__).resolve().parent.parent
        if not list(repo.glob("BENCH_*.json")):
            pytest.skip("no committed artifacts")
        assert main(["bench", "trend", "--dir", str(repo)]) == 0
        assert "perf trajectory" in capsys.readouterr().out
