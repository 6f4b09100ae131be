"""The shipped method library and taskset are what their scripts write.

Each script is loaded as a module, pointed at a temporary directory and run;
its output must match the shipped file byte for byte. ``sample.csv`` is left
out: it depends on numpy's random streams.
"""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
DATA = ROOT / "src" / "biasaudit" / "data"


def load_script(name):
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_method_library_is_its_scripts_output(tmp_path, monkeypatch):
    script = load_script("make_method_library")
    monkeypatch.setattr(script, "OUT", tmp_path / "method_library.json")
    script.main()
    assert script.OUT.read_bytes() == (DATA / "method_library.json").read_bytes()


def test_sample_taskset_is_its_scripts_output(tmp_path, monkeypatch):
    script = load_script("make_sample_data")
    monkeypatch.setattr(script, "DATA", tmp_path)
    script.make_taskset()
    assert (tmp_path / "sample_taskset.json").read_bytes() \
        == (DATA / "sample_taskset.json").read_bytes()
