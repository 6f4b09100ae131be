"""Command-line behavior: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys

import pytest

from biasaudit import cli, orchestrator, synthgen
from biasaudit.cli import main
from biasaudit.errors import BiasAuditError
from biasaudit.orchestrator import Action, ActionKind, ScriptedPlanner, SessionLog
from biasaudit.severity import DEFAULT_TABLE, CalibrationReport

DATA = os.path.join(os.path.dirname(cli.__file__), "data")
SAMPLE = os.path.join(DATA, "sample.csv")
# A child interpreter imports biasaudit from the same source tree.
SUBPROCESS_ENV = {**os.environ, "PYTHONPATH": os.path.dirname(
    os.path.dirname(os.path.abspath(cli.__file__)))}


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

    @pytest.mark.parametrize("command", ["detect", "repl"])
    def test_a_failed_session_leaves_its_log(self, tmp_path, capsys, command):
        out = tmp_path / "o1"
        code = main([command, SAMPLE, "--features", "nope", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: unknown column 'nope'; have "
            "['gender', 'region', 'age', 'hours', 'score', 'income_level']\n")
        log = SessionLog.from_jsonl(
            (out / "session.log.jsonl").read_text(encoding="utf-8"))
        failed = [e.payload for e in log.events
                  if e.action == "result" and not e.payload["ok"]]
        assert [p["tool"] for p in failed] == ["extract_single_column"] * 2

    def test_an_effect_beyond_float64_is_a_metric_error(self, tmp_path,
                                                        capsys):
        # The group means differ by about 2e308: causal_effect's ace cannot
        # be stated in the outcome's units, the other metrics still grade.
        path = tmp_path / "far.csv"
        rows = [f"{g},{sign}{1e308 - i * 1e305!r}" for i in range(6)
                for g, sign in (("a", ""), ("b", "-"))]
        path.write_text("\n".join(["group,value", *rows]) + "\n",
                        encoding="utf-8")
        code = main(["detect", str(path), "--features", "group", "value"])
        report = capsys.readouterr().out
        assert code == 0
        assert ("- categorical_numerical_correlation_causal_effect: "
                "causal_effect: ace exceeds float64 in the outcome's units\n"
                in report)
        graded = [line.split(" | ")[0] for line in report.splitlines()
                  if line.startswith("| ") and line.endswith(" |")][1:]
        assert graded == ["| max_abs_mean", "| cohens_d",
                          "| standardized_difference"]

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

    def test_global_seed_is_a_usage_error(self, cat_csv):
        # Only synth and calibrate draw random numbers, so only they take
        # --seed; elsewhere it is rejected rather than parsed and ignored.
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "5", "detect", cat_csv, "--features", "group"])
        assert exc.value.code == 2

    def test_repeated_runs_byte_identical(self, cat_csv, tmp_path):
        out1 = tmp_path / "one"
        out2 = tmp_path / "two"
        for out in (out1, out2):
            assert main(["detect", cat_csv, "--features", "group",
                         "--bias-type", "distribution",
                         "--out", str(out)]) == 0
        assert tree_bytes(out1) == tree_bytes(out2)

    @pytest.mark.parametrize("command", ["detect", "repl"])
    def test_three_features_exit_one(self, tmp_path, command, capsys):
        # Every feature is a column; the third one is not silently dropped.
        path = tmp_path / "three.csv"
        path.write_text("g,h,x\na,c,1\nb,d,2\n", encoding="utf-8")
        code = main([command, str(path), "--features", "g", "h", "x"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "implication tasks take 1 or 2 features, got 3" in captured.err

    @pytest.mark.parametrize("command", ["detect", "repl"])
    def test_bias_type_feature_count_mismatch_exit_one(self, cat_csv, command,
                                                       capsys):
        code = main([command, cat_csv, "--features", "group",
                     "--bias-type", "correlation"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "correlation tasks take exactly 2 features, got 1" in captured.err


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


class TestUserInputTool:
    """Only ``repl`` has a user for a planner's ``get_user_input_tool``."""

    def tool_result(self, command, cat_csv, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_planner", lambda config: ScriptedPlanner([
            Action(ActionKind.INVOKE_TOOL, tool="get_user_input_tool",
                   args={"prompt": "Which group?"})]))
        self.prompts = []
        replies = iter(["", "only group b", "quit"])

        def fake_input(prompt=""):
            self.prompts.append(prompt)
            return next(replies)

        monkeypatch.setattr("builtins.input", fake_input)
        out = tmp_path / "out"
        main([command, cat_csv, "--features", "group", "--out", str(out)])
        log = SessionLog.from_jsonl(
            (out / "session.log.jsonl").read_text(encoding="utf-8"))
        [result] = [e.payload for e in log.events if e.action == "result"]
        return result

    def test_repl_reads_the_next_line(self, cat_csv, tmp_path, monkeypatch):
        result = self.tool_result("repl", cat_csv, tmp_path, monkeypatch)
        assert result == {"tool": "get_user_input_tool", "ok": True,
                          "result": {"message": "only group b"}}
        assert self.prompts[:2] == ["Which group? > "] * 2

    def test_detect_logs_a_failed_call(self, cat_csv, tmp_path, monkeypatch):
        result = self.tool_result("detect", cat_csv, tmp_path, monkeypatch)
        assert result["ok"] is False
        assert "not interactive" in result["error"]
        assert self.prompts == []


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

    def test_global_seed_is_a_usage_error(self, cat_csv, tmp_path):
        taskset = tmp_path / "tasks.json"
        taskset.write_text(json.dumps([
            {"id": "T-1", "dataset": os.path.basename(cat_csv),
             "question": "q", "bias_type": "distribution",
             "features": ["group"]}]), encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["--seed", "5", "bench", str(taskset)])
        assert exc.value.code == 2

    def test_missing_taskset_exit_one(self, tmp_path, capsys):
        code = main(["bench", str(tmp_path / "absent.json")])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestCalibrate:
    def test_single_scenario_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "cal"
        code = main(["calibrate", "--seed", "7", "--scenario", "cat_dist",
                     "--out", str(out)])
        assert code == 0
        assert (out / "thresholds.json").exists()
        assert (out / "calibration.md").exists()
        assert "# Calibration report" in capsys.readouterr().out

    @pytest.mark.parametrize("argv,base_seed",
                             [(["--seed", "0"], 0), ([], 7)])
    def test_seed_passed_as_given(self, monkeypatch, argv, base_seed):
        seen = {}

        def fake_calibrate(scenarios, initial, base_seed):
            seen["base_seed"] = base_seed
            return DEFAULT_TABLE, CalibrationReport(per_metric={})

        monkeypatch.setattr(synthgen, "calibrate_scenarios", fake_calibrate)
        assert main(["calibrate", "--scenario", "cat_dist", *argv]) == 0
        assert seen == {"base_seed": base_seed}


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

    def test_stdout_matches_out_file(self, tmp_path, capfdbinary):
        spec = ["synth", "--scenario", "cat_num", "--n", "300", "--seed", "3"]
        path = tmp_path / "t.csv"
        assert main([*spec, "--out", str(path)]) == 0
        capfdbinary.readouterr()
        assert main(spec) == 0
        assert capfdbinary.readouterr().out == path.read_bytes()

    def test_invalid_strength_exit_one(self, capsys):
        code = main(["synth", "--scenario", "cat_dist", "--strength", "1.5"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_reader_closing_stdout_early_is_not_an_error(self):
        # As `synth ... | head -1`: the rows overflow the pipe's buffer, so a
        # write fails once the reader has closed it.
        proc = subprocess.Popen(
            [sys.executable, "-m", "biasaudit.cli", "synth", "--scenario",
             "cat_num", "--n", "20000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=SUBPROCESS_ENV)
        assert proc.stdout.readline() == b"group,value\n"
        proc.stdout.close()
        stderr = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert stderr == b""


def test_import_leaves_out_urllib():
    # Only chat mode sends requests, so only it imports urllib.request.
    code = "import sys, biasaudit.cli; print('urllib.request' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=SUBPROCESS_ENV, check=True)
    assert done.stdout == "False\n"


class TestConfig:
    def test_chat_mode_without_model_exit_one(self, tmp_path, cat_csv, capsys):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"base_url": "http://localhost:9/v1"}),
                          encoding="utf-8")
        code = main(["--config", str(config), "detect", cat_csv,
                     "--features", "group"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: config {config}: chat mode requires base_url and model\n")

    def test_config_never_holds_a_key(self, tmp_path, monkeypatch):
        # the config names the environment variable only
        monkeypatch.setenv("MY_KEY_VAR", "secret-key")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"base_url": "http://localhost:9/v1",
                                      "model": "m", "key_env": "MY_KEY_VAR"}),
                          encoding="utf-8")
        loaded = cli.load_config(str(config))
        planner = cli._planner(loaded)
        assert planner.config.key_env == "MY_KEY_VAR"
        assert "secret-key" not in repr(loaded) + repr(planner.config)

    def test_base_url_and_model_turn_chat_on(self, tmp_path, cat_csv,
                                             monkeypatch):
        # The README's example config: no other key is needed for chat.
        urls = []

        def transport(url, headers, payload, timeout_s):
            urls.append(url)
            return {"choices": [{"message": {"content": "FINISH"}}]}

        monkeypatch.setattr(orchestrator, "_default_transport", transport)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"base_url": "http://localhost:9/v1",
                                      "model": "m", "key_env": "MY_KEY_VAR"}),
                          encoding="utf-8")
        code = main(["--config", str(config), "detect", cat_csv,
                     "--features", "group"])
        assert code == 2  # the scripted endpoint finishes at once
        assert urls == ["http://localhost:9/v1"]

    @pytest.mark.parametrize("raw, named", [
        ({"model": "m"}, "['model']"),
        ({"key_env": "K", "base_url": ""}, "['key_env']"),
        ({"timeout_s": 5}, "['timeout_s']"),
        ({"model": "m", "timeout_s": 5}, "['model', 'timeout_s']"),
    ])
    def test_chat_key_without_base_url_exit_one(self, tmp_path, cat_csv,
                                                capsys, raw, named):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        code = main(["--config", str(config), "detect", cat_csv,
                     "--features", "group"])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: config {config}: no base_url, so chat mode is off and "
            f"{named} would be ignored\n")

    def test_mode_is_an_unknown_key(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mode": "offline"}), encoding="utf-8")
        with pytest.raises(BiasAuditError, match=r"unknown key\(s\) \['mode'\]"):
            cli.load_config(str(config))

    # Through load_config only: should the check fail, main would open an
    # int path as one of the test process's own file descriptors.
    @pytest.mark.parametrize("raw, message", [
        ({"library_path": 2}, "library_path must be a string or null, got 2"),
        ({"thresholds_path": 1}, "thresholds_path must be a string or null"),
        ({"thresholds_path": ["a"]}, "thresholds_path must be a string or null"),
        ({"timeout_s": "x"}, "timeout_s must be a number, got 'x'"),
        ({"timeout_s": True}, "timeout_s must be a number, got True"),
        ({"timeout_s": 0}, "timeout_s must be finite and > 0, got 0"),
        ({"key_env": 3}, "key_env must be a string, got 3"),
        ({"timeout_s": -1}, "timeout_s must be finite and > 0, got -1"),
        ({"timeout_s": float("nan")},
         "timeout_s must be finite and > 0, got nan"),
        ({"timeout_s": 1e10},
         "timeout_s must be at most 9223372036.0, got 10000000000.0"),
    ])
    def test_value_of_wrong_type_is_named(self, tmp_path, raw, message):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(BiasAuditError) as caught:
            cli.load_config(str(config))
        assert str(caught.value).startswith(f"config {config}: {message}")

    def test_values_of_right_type_load(self, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"base_url": "http://localhost:9/v1",
                                      "model": "m", "timeout_s": 5,
                                      "library_path": None,
                                      "thresholds_path": "t.json"}),
                          encoding="utf-8")
        assert cli.load_config(str(config)) == cli.Config(
            base_url="http://localhost:9/v1", model="m", timeout_s=5,
            thresholds_path="t.json")

    @pytest.mark.parametrize("command", ["detect", "bench"])
    def test_library_path_is_cited(self, tmp_path, cat_csv, capsys, command):
        # The config's library is the shipped one with every id prefixed
        # "X-"; a report must cite only those ids.
        with open(os.path.join(DATA, "method_library.json"),
                  encoding="utf-8") as fh:
            library = json.load(fh)
        for record in library:
            record["id"] = "X-" + record["id"]
        (tmp_path / "lib.json").write_text(json.dumps(library),
                                           encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"library_path": str(tmp_path / "lib.json")}),
                          encoding="utf-8")
        (tmp_path / "tasks.json").write_text(json.dumps([
            {"id": "T-01", "dataset": "cat.csv", "question": "q",
             "bias_type": "distribution", "features": ["group"]}]),
            encoding="utf-8")
        out = tmp_path / "out"
        argv = {"detect": [cat_csv, "--features", "group"],
                "bench": [str(tmp_path / "tasks.json")]}[command]
        assert main(["--config", str(config), command, *argv,
                     "--out", str(out)]) == 0
        report = (out / ("report.md" if command == "detect"
                         else "T-01/report.md")).read_text(encoding="utf-8")
        cited = report.split("## Method references\n\n")[1].splitlines()
        assert cited and all(line.startswith("- X-") for line in cited)


class TestRulePlannerGuards:
    def test_unknown_feature_is_one_error_line(self, capsys):
        assert main(["detect", SAMPLE, "--features", "nope"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: unknown column 'nope'; have ['gender', 'region', 'age', "
            "'hours', 'score', 'income_level']\n")

    def test_mid_plan_budget_stops_after_the_clean_step(self, tmp_path):
        out = tmp_path / "out"
        assert main(["detect", SAMPLE, "--features", "gender", "--budget",
                     "4", "--out", str(out)]) == 2
        log = SessionLog.from_jsonl(
            (out / "session.log.jsonl").read_text(encoding="utf-8"))
        assert [(e.actor, e.action) for e in log.events[-3:]] == [
            ("primary", "action"), ("tool", "result"),
            ("system", "budget_exhausted")]
        assert log.events[-2].payload["tool"] == "clean_missing_values"
        assert len(log.events) == 10


def _band(**fields):
    band = {"raw_key": "G_norm", "transform": "one_minus",
            "cuts": [0.1, 0.25, 0.5, 0.75]}
    band.update(fields)
    return json.dumps({"bands": {"gini": band}})


def _table(metric_id, **fields):
    """The default table with one band's fields replaced; a band for an id
    the table lacks starts as a copy of the gini band."""
    payload = json.loads(DEFAULT_TABLE.to_json())
    bands = payload["bands"]
    bands.setdefault(metric_id, dict(bands["gini"])).update(fields)
    return json.dumps(payload)


_DETECT = ["detect", "{tmp}/cat.csv", "--features", "group"]
_WITH_THRESHOLDS = ["--config", "{tmp}/config.json", *_DETECT]
_THRESHOLDS_CONFIG = {"config.json": '{"thresholds_path": "{tmp}/t.json"}'}
_LIBRARY_CONFIG = {"config.json": '{"library_path": "{tmp}/lib.json"}'}
_METHODS_LIST = ["--config", "{tmp}/config.json", "methods", "list"]
_METHOD = {"id": "X-1", "intention": "i", "method": {"step_1": "s"},
           "title": "t", "article_link": "", "field": "f", "year": 2024,
           "tags": {"bias_type": "distribution", "data_type": "cat_dist"}}

# (id, files written to the temporary directory, argv, text the error names);
# "{tmp}" stands for that directory in file texts and argv.
BAD_INPUTS = [
    ("top-k-zero", {},
     ["methods", "search", "--scenario", "cat_dist", "--top-k", "0"],
     "top_k must be >= 1"),
    ("csv-not-utf8", {"data.csv": b"group\n\xe9t\xe9\n"},
     ["detect", "{tmp}/data.csv", "--features", "group"], "utf-8"),
    ("thresholds-not-json", {**_THRESHOLDS_CONFIG, "t.json": "{"},
     _WITH_THRESHOLDS, "threshold table"),
    ("thresholds-flat-cuts", {**_THRESHOLDS_CONFIG, "t.json": _band(
        cuts=[1, 1, 1, 1])}, _WITH_THRESHOLDS, "strictly increasing"),
    ("thresholds-bad-transform", {**_THRESHOLDS_CONFIG, "t.json": _band(
        transform="cube")}, _WITH_THRESHOLDS, "unknown transform 'cube'"),
    ("thresholds-no-bands", {**_THRESHOLDS_CONFIG, "t.json": '{"bands": {}}'},
     _WITH_THRESHOLDS, "no band for"),
    ("thresholds-unknown-raw-key", {**_THRESHOLDS_CONFIG, "t.json": _table(
        "gini", raw_key="nope")}, _WITH_THRESHOLDS,
     "gini band must grade 'G_norm' with 'one_minus', got 'nope'"),
    ("thresholds-other-raw-key", {**_THRESHOLDS_CONFIG, "t.json": _table(
        "gini", raw_key="G")}, _WITH_THRESHOLDS,
     "gini band must grade 'G_norm' with 'one_minus', got 'G'"),
    ("thresholds-other-transform", {**_THRESHOLDS_CONFIG, "t.json": _table(
        "pearson", transform="identity")}, _WITH_THRESHOLDS,
     "pearson band must grade 'r' with 'abs', got 'r' with 'identity'"),
    ("thresholds-unknown-metric", {**_THRESHOLDS_CONFIG, "t.json": _table(
        "ginni", cuts=[0.5, 0.6, 0.7, 0.8])}, _WITH_THRESHOLDS,
     "bands for unknown metrics ['ginni']"),
    ("library-not-json", {**_LIBRARY_CONFIG, "lib.json": "{"}, _METHODS_LIST,
     "library"),
    ("library-entry-not-object", {**_LIBRARY_CONFIG, "lib.json": "[1]"},
     _METHODS_LIST, "entry 0: expected an object, got 1"),
    ("library-tags-string", {**_LIBRARY_CONFIG, "lib.json": json.dumps(
        [{**_METHOD, "tags": "cat_dist"}])}, _METHODS_LIST,
     "entry 'X-1': tags must be an object, got 'cat_dist'"),
    ("thresholds-not-utf8", {**_THRESHOLDS_CONFIG, "t.json": b"\xe9"},
     _WITH_THRESHOLDS, "t.json: 'utf-8' codec can't decode"),
    ("config-not-json", {"config.json": "{"}, _WITH_THRESHOLDS, "config"),
    ("config-list", {"config.json": "[]"}, _WITH_THRESHOLDS,
     "expected a JSON object"),
    ("config-unknown-key", {"config.json": '{"threshold_path": "t.json"}'},
     _WITH_THRESHOLDS, "unknown key(s) ['threshold_path']"),
    ("taskset-entry-not-object", {"tasks.json": '["x"]'},
     ["bench", "{tmp}/tasks.json"], "taskset entry 0"),
    ("taskset-features-string", {"tasks.json": json.dumps([
        {"id": "T-1", "dataset": "cat.csv", "question": "q",
         "bias_type": "distribution", "features": "group"}])},
     ["bench", "{tmp}/tasks.json"], "features must be a list"),
    ("taskset-unknown-bias-type", {"tasks.json": json.dumps([
        {"id": "T-1", "dataset": "cat.csv", "question": "q",
         "bias_type": "distrib", "features": ["group"]}])},
     ["bench", "{tmp}/tasks.json"], "bias_type must be one of"),
    ("taskset-not-utf8", {"tasks.json": b"\xe9"},
     ["bench", "{tmp}/tasks.json"], "utf-8"),
    ("bench-jobs-zero", {"tasks.json": json.dumps([
        {"id": "T-1", "dataset": "cat.csv", "question": "q",
         "bias_type": "distribution", "features": ["group"]}])},
     ["bench", "{tmp}/tasks.json", "--jobs", "0"], "jobs must be >= 1, got 0"),
    ("config-out-dir", {"config.json": '{"out_dir": "out"}'},
     _WITH_THRESHOLDS, "unknown key(s) ['out_dir']"),
    ("synth-k-num-dist", {}, ["synth", "--scenario", "num_dist", "--k", "7"],
     "--k applies only to cat_dist and cat_cat, not num_dist"),
    ("synth-k-cat-num", {}, ["synth", "--scenario", "cat_num", "--k", "2"],
     "--k applies only to cat_dist and cat_cat, not cat_num"),
    ("synth-negative-seed", {}, ["synth", "--scenario", "cat_dist", "--seed",
                                 "-1"], "seed must be >= 0, got -1"),
    # The level-1 suite's first seed is --seed + 1000.
    ("calibrate-negative-seed", {}, ["calibrate", "--seed", "-2000"],
     "seed must be >= -1000, got -2000"),
    ("config-thresholds-path-list", {"config.json": '{"thresholds_path": ["a"]}'},
     _WITH_THRESHOLDS, "config.json: thresholds_path must be a string or "
     "null, got ['a']"),
]


@pytest.mark.parametrize("files,argv,message",
                         [case[1:] for case in BAD_INPUTS],
                         ids=[case[0] for case in BAD_INPUTS])
def test_bad_input_exits_one_with_one_error_line(tmp_path, capsys, files,
                                                 argv, message):
    tmp = str(tmp_path)
    (tmp_path / "cat.csv").write_text("group\na\na\nb\n", encoding="utf-8")
    for name, content in files.items():
        if isinstance(content, str):
            content = content.replace("{tmp}", tmp).encode("utf-8")
        (tmp_path / name).write_bytes(content)
    code = main([arg.replace("{tmp}", tmp) for arg in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and message in line
