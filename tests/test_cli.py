"""Command-line behavior: exit codes, artifacts, determinism."""

import json
import os

import pytest

from biasaudit.cli import main


@pytest.fixture
def cat_csv(tmp_path):
    path = tmp_path / "cat.csv"
    rows = ["group"] + ["a"] * 30 + ["b"] * 10 + ["c"] * 5
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    return str(path)


def tree_bytes(root):
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


class TestDetect:
    def test_complete_run_exit_zero(self, cat_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["detect", cat_csv, "--features", "group",
                     "--bias-type", "distribution", "--out", str(out)])
        assert code == 0
        names = set(os.listdir(out))
        assert {"report.md", "findings.json", "session.log.jsonl"} <= names
        assert any(n.endswith(".svg") for n in names)
        stdout = capsys.readouterr().out
        assert "# Bias detection report" in stdout

    def test_unknown_feature_exit_one(self, cat_csv, capsys):
        code = main(["detect", cat_csv, "--features", "no_such_column",
                     "--bias-type", "distribution"])
        assert code == 1
        assert "no_such_column" in capsys.readouterr().err

    def test_missing_dataset_exit_one(self, tmp_path, capsys):
        code = main(["detect", str(tmp_path / "absent.csv"),
                     "--features", "group"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_budget_zero_exit_two(self, cat_csv):
        code = main(["detect", cat_csv, "--features", "group",
                     "--bias-type", "distribution", "--budget", "0"])
        assert code == 2

    @pytest.mark.parametrize("flag", [["--delimiter", ";"], ["--na-tokens", "x"]])
    def test_removed_loader_flags_are_usage_errors(self, cat_csv, flag, capsys):
        # detect always loads with the default delimiter and na tokens, so
        # these flags are rejected rather than parsed and ignored.
        with pytest.raises(SystemExit) as exc:
            main(["detect", cat_csv, "--features", "group", *flag])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_repeated_runs_byte_identical(self, cat_csv, tmp_path):
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        for out in (out1, out2):
            assert main(["detect", cat_csv, "--features", "group",
                         "--bias-type", "distribution",
                         "--out", str(out)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)


class TestRepl:
    def run_repl(self, cat_csv, monkeypatch, replies):
        lines = iter(replies)

        def fake_input(_prompt=""):
            try:
                return next(lines)
            except StopIteration:
                raise EOFError

        monkeypatch.setattr("builtins.input", fake_input)
        return main(["repl", cat_csv, "--features", "group",
                     "--bias-type", "distribution"])

    def test_two_followups_three_reports(self, cat_csv, monkeypatch, capsys):
        code = self.run_repl(cat_csv, monkeypatch,
                             ["is a dominant?", "what about c?", "quit"])
        assert code == 0
        captured = capsys.readouterr()
        assert "3 report(s) produced" in captured.err
        assert captured.out.count("# Bias detection report") == 3

    def test_quit_immediately_one_report(self, cat_csv, monkeypatch, capsys):
        code = self.run_repl(cat_csv, monkeypatch, ["q"])
        assert code == 0
        assert "1 report(s) produced" in capsys.readouterr().err

    def test_eof_exits_cleanly(self, cat_csv, monkeypatch, capsys):
        code = self.run_repl(cat_csv, monkeypatch, [])
        assert code == 0
        assert "1 report(s) produced" in capsys.readouterr().err


class TestBench:
    def test_sample_style_taskset(self, cat_csv, tmp_path, capsys):
        records = [
            {"id": "T-1", "dataset": os.path.basename(cat_csv),
             "question": "Is group balanced?", "bias_type": "distribution",
             "features": ["group"]},
            {"id": "T-2", "dataset": os.path.basename(cat_csv),
             "question": "Any implication?", "bias_type": "implication",
             "features": ["group"]},
        ]
        taskset = tmp_path / "tasks.json"
        taskset.write_text(json.dumps(records), encoding="utf-8")
        out = tmp_path / "bench"
        code = main(["bench", str(taskset), "--out", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "| Distribution | 1 |" in stdout
        assert "| Implication | 1 |" in stdout
        assert "| Overall | 2 |" in stdout
        assert (out / "benchmark.md").exists()

    def test_missing_taskset_exit_one(self, tmp_path, capsys):
        code = main(["bench", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCalibrate:
    def test_single_scenario_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "cal"
        code = main(["--seed", "7", "calibrate", "--scenario", "cat_dist",
                     "--out", str(out)])
        assert code == 0
        assert (out / "thresholds.json").exists()
        assert (out / "calibration.md").exists()
        assert "# Calibration report" in capsys.readouterr().out


class TestMethods:
    def test_list(self, capsys):
        assert main(["methods", "list"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 27
        assert any(line.startswith("A-0-1\t") for line in lines)

    def test_show(self, capsys):
        assert main(["methods", "show", "A-0-1"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["id"] == "A-0-1"

    def test_show_unknown_exit_one(self, capsys):
        assert main(["methods", "show", "Z-9"]) == 1

    def test_search(self, capsys):
        assert main(["methods", "search", "--scenario", "cat_dist",
                     "--query", "gender balance", "--top-k", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert 1 <= len(lines) <= 3


class TestSynth:
    def test_stdout_csv(self, capsys):
        assert main(["synth", "--scenario", "cat_dist", "--n", "50"]) == 0
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[0] == "category"
        assert len(stdout.splitlines()) == 51

    def test_out_file(self, tmp_path):
        path = tmp_path / "t.csv"
        assert main(["synth", "--scenario", "num_num", "--n", "20",
                     "--out", str(path)]) == 0
        assert path.read_text(encoding="utf-8").splitlines()[0] == "x,y"

    def test_invalid_strength_exit_one(self, capsys):
        code = main(["synth", "--scenario", "cat_dist", "--strength", "1.5"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestConfig:
    def test_chat_mode_without_model_exit_one(self, tmp_path, cat_csv, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "chat"}), encoding="utf-8")
        code = main(["--config", str(config), "detect", cat_csv,
                     "--features", "group"])
        assert code == 1
        assert "chat mode" in capsys.readouterr().err

    def test_config_never_holds_a_key(self, tmp_path, cat_csv):
        # the config names the environment variable only
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "offline",
                                      "key_env": "MY_KEY_VAR"}),
                          encoding="utf-8")
        code = main(["--config", str(config), "detect", cat_csv,
                     "--features", "group", "--bias-type", "distribution"])
        assert code == 0
