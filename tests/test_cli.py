import json
import os
import sys

import pytest

from treeformer.cli import _cap_threads, build_parser, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fail(capsys, *argv):
    with pytest.raises(SystemExit) as err:
        main(list(argv))
    captured = capsys.readouterr()
    return err.value.code, captured.out, captured.err


class TestParseCommand:
    def test_emit_json_single_line(self, capsys):
        code, out, _ = run(capsys, "parse", "--source", "a = b + c;", "--emit-json")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert obj["root"] == 0 and obj["nodes"][0]["type"] == "program"

    def test_summary_mode(self, capsys):
        code, out, _ = run(capsys, "parse", "--source", "a = 1;")
        assert code == 0
        assert json.loads(out)["nodes"] == 4

    def test_file_input(self, capsys, tmp_path):
        src = tmp_path / "p.mini"
        src.write_text("s = 0; s = s + 1;")
        code, out, _ = run(capsys, "parse", "--file", str(src), "--emit-json")
        assert code == 0
        json.loads(out)

    def test_lex_error_json_on_stderr(self, capsys):
        code, _, err = run_fail(capsys, "parse", "--source", "a $ b;")
        assert code == 1
        payload = json.loads(err)
        assert payload["error"] == "LexError"

    def test_missing_input(self, capsys):
        code, _, err = run_fail(capsys, "parse")
        assert code != 0
        assert json.loads(err)["error"] == "UsageError"


class TestSynthCommands:
    def test_classify_deterministic_bytes(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out_dir in (a, b):
            code, _, _ = run(
                capsys, "synth-classify", "--classes", "3", "--per-class", "4",
                "--seed", "7", "--out", str(out_dir),
            )
            assert code == 0
        for name in ("trees.jsonl", "meta.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_wrongop_counts(self, capsys, tmp_path):
        code, out, _ = run(
            capsys, "synth-wrongop", "--programs", "5", "--seed", "1",
            "--out", str(tmp_path / "w"),
        )
        assert code == 0
        assert json.loads(out)["samples"] == 5
        lines = (tmp_path / "w" / "trees.jsonl").read_text().splitlines()
        assert len(lines) == 5
        assert "mutation" in json.loads(lines[0])

    def test_bad_params_json_error(self, capsys, tmp_path):
        code, _, err = run_fail(
            capsys, "synth-classify", "--classes", "40", "--out", str(tmp_path / "x")
        )
        assert code == 1
        assert json.loads(err)["error"] == "ValueError"


class TestTrainEvalCommands:
    @pytest.fixture()
    def corpus_dir(self, capsys, tmp_path):
        run(capsys, "synth-classify", "--classes", "2", "--per-class", "6",
            "--seed", "3", "--out", str(tmp_path / "corpus"))
        return tmp_path

    def _train(self, capsys, tmp_path, out_name, *extra):
        return run(
            capsys, "train", "--task", "classify",
            "--train", str(tmp_path / "corpus"), "--eval", str(tmp_path / "corpus"),
            "--out", str(tmp_path / out_name),
            "--dim", "8", "--heads", "2", "--epochs", "2", "--batch-size", "4",
            "--seed", "5", "--precision", "float64", "--warmup", "10", *extra,
        )

    def test_train_then_eval(self, capsys, tmp_path, corpus_dir):
        code, out, _ = self._train(capsys, tmp_path, "run")
        assert code == 0
        summary = json.loads(out)
        assert summary["epochs_run"] == 2
        code, out, _ = run(
            capsys, "eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.json"),
            "--data", str(tmp_path / "corpus"),
        )
        assert code == 0
        metrics = json.loads(out)
        assert metrics["task"] == "classify" and "accuracy" in metrics

    def test_rerun_reproduces_artifacts(self, capsys, tmp_path, corpus_dir):
        self._train(capsys, tmp_path, "r1")
        self._train(capsys, tmp_path, "r2")
        for name in ("metrics.csv", "summary.json", "checkpoint.json.bin"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_ablate_flags_accepted(self, capsys, tmp_path, corpus_dir):
        code, _, _ = self._train(capsys, tmp_path, "ra", "--ablate", "pe", "--ablate", "topdown")
        assert code == 0
        manifest = json.loads((tmp_path / "ra" / "run_manifest.json").read_text())
        assert manifest["train_config"]["use_position_encoding"] is False
        assert manifest["train_config"]["use_top_down"] is False

    def test_config_file_with_cli_precedence(self, capsys, tmp_path, corpus_dir):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"epochs": 1, "dim": 8, "heads": 2, "seed": 9,
                                    "batch_size": 4, "precision": "float64"}))
        code, out, _ = run(
            capsys, "train", "--task", "classify",
            "--train", str(tmp_path / "corpus"), "--out", str(tmp_path / "rc"),
            "--config", str(conf), "--epochs", "2",
        )
        assert code == 0
        assert json.loads(out)["epochs_run"] == 2  # CLI --epochs beats config file
        manifest = json.loads((tmp_path / "rc" / "run_manifest.json").read_text())
        assert manifest["train_config"]["seed"] == 9  # config file beats default

    def test_unknown_config_key_rejected(self, capsys, tmp_path, corpus_dir):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({"nonsense": 1}))
        code, _, err = run_fail(
            capsys, "train", "--task", "classify", "--train", str(tmp_path / "corpus"),
            "--out", str(tmp_path / "rx"), "--config", str(conf),
        )
        assert code == 1
        assert json.loads(err)["error"] == "UsageError"


class TestWrongopCaveat:
    def test_topdown_ablation_caveat_printed(self, capsys, tmp_path):
        run(capsys, "synth-wrongop", "--programs", "6", "--seed", "2",
            "--out", str(tmp_path / "w"))
        code, _, err = run(
            capsys, "train", "--task", "wrongop",
            "--train", str(tmp_path / "w"), "--out", str(tmp_path / "rw"),
            "--dim", "8", "--heads", "2", "--epochs", "1", "--batch-size", "4",
            "--precision", "float64", "--ablate", "topdown",
        )
        assert code == 0  # permitted, but flagged
        assert "top-down" in err


class TestGradcheckCommand:
    def test_passes_at_small_dim(self, capsys):
        code, out, _ = run(
            capsys, "gradcheck", "--dim", "4", "--heads", "2", "--seed", "1",
            "--task", "classify",
        )
        assert code == 0
        assert "max relative error" in out

    def test_threshold_failure_exit_code(self, capsys):
        code, _, err = run_fail(
            capsys, "gradcheck", "--dim", "4", "--heads", "2", "--seed", "1",
            "--task", "classify", "--threshold", "1e-18",
        )
        assert code == 1
        assert json.loads(err)["error"] == "GradCheckFailed"


class TestBenchCommand:
    def test_csv_shape(self, capsys):
        code, out, _ = run(capsys, "bench", "--sizes", "30,60", "--trees-per-size", "2",
                           "--heads", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("mean_nodes,")
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "30"
        # every head allocates each real cell, and no padded one
        header = lines[0].split(",")
        row = dict(zip(header, first))
        assert int(row["allocated_cells"]) >= 2 * int(row["attention_cells"])
        assert int(row["allocated_cells"]) >= int(row["peak_cells"]) > 0


class TestInspectCommand:
    def test_stats(self, capsys, tmp_path):
        run(capsys, "synth-classify", "--classes", "2", "--per-class", "3",
            "--seed", "1", "--out", str(tmp_path / "c"))
        code, out, _ = run(capsys, "inspect", "--data", str(tmp_path / "c"))
        assert code == 0
        stats = json.loads(out)
        assert stats["samples"] == 6 and stats["task"] == "classify"
        assert stats["label_histogram"] == {"0": 3, "1": 3}


class TestHelp:
    def test_help_lists_defaults(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["train", "--help"])
        assert err.value.code == 0
        out = capsys.readouterr().out
        assert "default: 0.002" in out
        assert "default: 2000" in out
        assert "--ablate" in out and "fraternal-keep-pe" in out

    def test_unknown_flag_json_error(self, capsys):
        code, _, err = run_fail(capsys, "parse", "--nope")
        assert code == 2
        assert json.loads(err)["error"] == "UsageError"

    def test_every_command_registered(self):
        parser = build_parser()
        sub = next(
            a for a in parser._actions if isinstance(a, type(parser._actions[-1]))
            and hasattr(a, "choices") and a.choices
        )
        assert set(sub.choices) == {
            "parse", "synth-classify", "synth-wrongop", "train", "eval",
            "gradcheck", "bench", "inspect",
        }


THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


class TestThreads:
    @pytest.fixture(autouse=True)
    def _keep_env(self, monkeypatch):
        for var in THREAD_VARS:
            monkeypatch.setenv(var, "1")

    @pytest.mark.parametrize("value", ["abc", "0", "-1", "1.5", "", "²"])
    def test_bad_value_usage_error(self, capsys, value):
        code, _, err = run_fail(capsys, "parse", "--source", "a = 1;", "--threads", value)
        assert code == 2
        assert json.loads(err)["error"] == "UsageError"
        code, _, err = run_fail(capsys, "parse", "--source", "a = 1;", f"--threads={value}")
        assert code == 2
        assert json.loads(err)["error"] == "UsageError"

    def test_note_when_numpy_already_loaded(self, capsys):
        code, _, err = run(capsys, "parse", "--source", "a = 1;", "--threads", "2")
        assert code == 0
        assert err.startswith("note: --threads has no effect")
        assert all(os.environ[var] == "2" for var in THREAD_VARS)

    def test_no_note_before_numpy_loads(self, capsys, monkeypatch):
        monkeypatch.delitem(sys.modules, "numpy")
        _cap_threads(["train", "--threads=3"])
        assert capsys.readouterr().err == ""
        assert all(os.environ[var] == "3" for var in THREAD_VARS)
