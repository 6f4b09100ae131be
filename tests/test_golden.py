"""The CLI's outputs on the shipped sample data, pinned by sha256.

A change that alters an output on purpose re-pins the digests named in the
failure message in one edit, and says so in CHANGES.md.
"""

import contextlib
import hashlib
import io
import os
import shutil

import pytest

from biasaudit import bench
from biasaudit.cli import main

DATA = os.path.join(os.path.dirname(bench.__file__), "data")
# Stands in for the temporary directory in files that name it.
TMP_TOKEN = b"<tmp>"

DETECT = {
    "age hours": {
        "<stdout>":
            "38d8b4b9514b912450833328aac42d3609ac06fd67c89810b4063d1f383902fd",
        "chart_00_correlation_heatmap.svg":
            "983faa644ba6122145928879cd0a30677912863cb3b5111229d86a80327bb2ff",
        "findings.json":
            "71868e1b57253c9c35814f8e978e06a47fc87e1342c8a47b063f9834f44b3dc4",
        "report.md":
            "10669549ae383a60b4565be466d00facbae1ba1c8ad65e4397b79283f28b858e",
        "session.log.jsonl":
            "9d3a8e8e33fb9a28b148c4df6980b6cb20208791178b3948883aff12efe08dab",
    },
    "gender": {
        "<stdout>":
            "e0df027001348f0f8c41b7a68c8dd6ae549448f882a10771ea9cba62234de26e",
        "chart_00_bar.svg":
            "9df311634defbe4e2cf144d3828386d6a26a78dabf5221c9c24f60ab9a869a8d",
        "findings.json":
            "8ce14d140741c6bacd2b74b19a24cd017a15dc9d553563f95b06386ae56b1946",
        "report.md":
            "20b2f6578af5449813adb14bb7641e5d167a73fca1f0a7b6d4aeb7e7c97efce2",
        "session.log.jsonl":
            "830923a2b989958e3b9ef324f26ea340f13987a9b4c945f71f31e00750eb2f01",
    },
    "gender income_level": {
        "<stdout>":
            "e07bbeb28aa576348a8e74028810850172800f5354ee86bff52d05d14419583c",
        "chart_00_stacked_bar.svg":
            "aec9a6aa2c382e694dbbea00a29b1cb10a89936689366919038df62daaec6ddf",
        "findings.json":
            "8fa1471409304aac06ca8c9f82475181610407f878fd3d7019d9cbea5bdc6538",
        "report.md":
            "7eca1e57e5071c82051fd177f827a86f8eba3eeaba0c805719cf1ff751deab8f",
        "session.log.jsonl":
            "4dd4ddae1be4e70ad54c306031be17c430282028032782fae47e8bccc0df2aa4",
    },
    "gender score": {
        "<stdout>":
            "ae6d6702817fa4346ae9f7f4eeca09b17933914c783b0639ed4214ce521fd313",
        "chart_00_box.svg":
            "269ec38ca4a8a6bfd88fd499a2d5011345e9a7973d6b439df2f42881f57d260e",
        "findings.json":
            "fc58edaec2b27d665635fae3737c88ef255bea62d4c5e56deaf4baf11fe72ad6",
        "report.md":
            "1e892423e0e352e77642f930d05848be0c27648c3b8cbffed3f913573f0de249",
        "session.log.jsonl":
            "2d659772e70d0fb2f0f02ff5016daacba346a716c8caeac1bffa9755401a47d4",
    },
    "score": {
        "<stdout>":
            "d62933534221f5e3e8fd2cc255726f820eed37bd8dfc5ff49d5d8d39b4a0ac77",
        "chart_00_box.svg":
            "042ef1659679ad3021fe2912ac1723d1457f8af3c8bb9eee184bcd46e270f20a",
        "findings.json":
            "c14b412317df620d9ec4861a7379488e67f49efb7ae8c71155b894b1efb849fe",
        "report.md":
            "666ecfbe6530664183644e9f819c359d524475c57258a0147dbf6da3c17633b3",
        "session.log.jsonl":
            "7077f4effececd4ef9c1d9ed4404db2170301e7eb64e82d7c162fcfd97dc581b",
    },
}

BENCH = {
    "<stdout>":
        "f4a306fddd06e648619eb6500fdab388514e880705eb350ba8ddbb65f5419874",
    "T-01.log.jsonl":
        "4687675eb1b7bfd9aef43a7bfd49019b90fbf4b055dee538ed2611b4353e542b",
    "T-01/chart_00_bar.svg":
        "9df311634defbe4e2cf144d3828386d6a26a78dabf5221c9c24f60ab9a869a8d",
    "T-01/findings.json":
        "ff2d467bdb91842894ce43eb6ba7720474a420274b6ddf79d80c2dc7c585a80f",
    "T-01/report.md":
        "84a18b9e5f2724efa786a16584a04c3dae04fd4cee26f79d0967a56fdab9d023",
    "T-02.log.jsonl":
        "909e9b1edcbb683e20505f11dc6f2aff1201a4ef8fa0a748fde0f67b8690f633",
    "T-02/chart_00_bar.svg":
        "eaf044154c858c4e924d03b9a574b5fee192d72d43eeee6556dd9cf2d314bd94",
    "T-02/findings.json":
        "5e8581074f24466e0d8d9fb0f2bb6a4b7598ad93536fb2fc879666e48215d5c2",
    "T-02/report.md":
        "8a9ab27b835471935adee98d6d0c737df6e88aa602d55e5331babc94c2dca455",
    "T-03.log.jsonl":
        "b393df64869d0f1636a9710561e0999a3420f5e3716b5ca9517d709b2befed9b",
    "T-03/chart_00_bar.svg":
        "de9b65bb8a094f41ec9ec2a0df2366c753557ce90230422c08dbdd3646bebe43",
    "T-03/findings.json":
        "5ab226fea4eb7316060e2d8bf45b28885eb5a07c954b72f3bb5b25b982952b01",
    "T-03/report.md":
        "3df9ee6100efb7a3d79b40f13231f80027aa34a50d3d1615618d5cc3c9969b15",
    "T-04.log.jsonl":
        "e3d316189a34158d9e4c5df3c76e29466be36843c0b75d641431570383ffd43e",
    "T-04/chart_00_box.svg":
        "69cfc046eb706391274b72872d994e80ca072a71d57daa8d7ae37124e6032b71",
    "T-04/findings.json":
        "7c124da64e09ca860b65637a829e19fbfbeb6571760bd42e8b5537362d57dfde",
    "T-04/report.md":
        "af6d997d256041682214e6c26ff602fd9e921795455474375bb084005aee376e",
    "T-05.log.jsonl":
        "fd653f4a30adaee5cc4bd556a9370f4e265886c5e68980149bbeb14501a3ec32",
    "T-05/chart_00_box.svg":
        "8cfd6a58502ba05561743780d042da157cb82efc0b36bc4ff4d3206bebc63c07",
    "T-05/findings.json":
        "5ed3d212ac59bb50f253dfd624179ccec72fdffdf067efbabfb34fb3ebc55dfb",
    "T-05/report.md":
        "25cc7d5b89d14326fc2b83227443e3ddad674d0a6c6c4f3444fa9269701f9a4e",
    "T-06.log.jsonl":
        "0c52d42f6df9d010a75f17c22129f86592bea1e7723156f3db67c8fe356b7849",
    "T-06/chart_00_box.svg":
        "042ef1659679ad3021fe2912ac1723d1457f8af3c8bb9eee184bcd46e270f20a",
    "T-06/findings.json":
        "1d088a581e78d8dcdd00f4d495eadec52561a03f26488d27774b0e47f49ea09a",
    "T-06/report.md":
        "0e84708a50a4d6c5e8788d5a85828cee325d4cc4644995b157e4cae7312eaffd",
    "T-07.log.jsonl":
        "f0799db1c085010f38ed9c6b57822751d2e68eed24e63380a3bac56a47d2b5bc",
    "T-07/chart_00_stacked_bar.svg":
        "aec9a6aa2c382e694dbbea00a29b1cb10a89936689366919038df62daaec6ddf",
    "T-07/findings.json":
        "e3c42afbc24bef63b3c5e6f20e5644857189fa3735c01f5cf6be5fa107bd4af7",
    "T-07/report.md":
        "437adfabcc073105ade2b9de7ff2d0e56cfdfe3bfe55a7f9aaeecdbd9aa5a467",
    "T-08.log.jsonl":
        "811a11fceb8017d4873a60d69ef86993830808d418343a190824c8639d31698d",
    "T-08/chart_00_box.svg":
        "269ec38ca4a8a6bfd88fd499a2d5011345e9a7973d6b439df2f42881f57d260e",
    "T-08/findings.json":
        "bc5dfe772a1f40a562cf6e7521dd5071e4e479f4346a03b4d5006f33295c1f6f",
    "T-08/report.md":
        "38489a15d10862f878a0bc1aba1e8f748bcdd19f78b5ad7219be3c6cdac01716",
    "T-09.log.jsonl":
        "b1068550f9feb4029e807579d044c456b83c61e953b7d6689fc7d9bff6ee5844",
    "T-09/chart_00_correlation_heatmap.svg":
        "fb41786429f189db7d27f52791296c7d1de067ee2f63b97b7ea5a5b468eea8d2",
    "T-09/findings.json":
        "9cb923a9f694e0f10408b8a00b61cbbfeeeb80ef055bc265c907c937923b034a",
    "T-09/report.md":
        "ad2ea18e753d27c42cdcf04e9358b3b6fc9cce35610a80c8a888631982bece20",
    "T-10.log.jsonl":
        "fe62b634524684b6f4ae80d5475104088c7f000794f6922a1ea0bb4dd83e3093",
    "T-10/chart_00_stacked_bar.svg":
        "ed9d6829bbea4c88263e38ccfc8872391b4802f009f08fa52bbf3201e3ce5dcb",
    "T-10/findings.json":
        "1d296b503159329d41a1d5728d0969b71b2e7565ec1392308d3fdd3404ef5aa5",
    "T-10/report.md":
        "1f1a0ffeb928e58b0ad5a45aecf4dd4aaf446da4b8697b750c50a7cd6ad1b75c",
    "T-11.log.jsonl":
        "1b35b054bb1650c2f255a749372695d096ff794b5cc7e32576793b49a8739fa7",
    "T-11/chart_00_box.svg":
        "780cdc91d96de7640c493e58a9dc6cb90aeb9a010d0d6cd64085a25528e98f26",
    "T-11/findings.json":
        "d8cf1fef8af24c490c624c73662bd3fb23eca9ce1cfe31838f3b482c80db1801",
    "T-11/report.md":
        "a83b83c85d4b31453a9065b5cadbff1183c40200b004993b32b6fbb99efdbc46",
    "T-12.log.jsonl":
        "a385d349a56c56e0a0e85d2aa2890ae9180c3ca19bdf771d85d98da35c410fdd",
    "T-12/chart_00_correlation_heatmap.svg":
        "983faa644ba6122145928879cd0a30677912863cb3b5111229d86a80327bb2ff",
    "T-12/findings.json":
        "6b6ae7b14d6e8b155d80329f3ef4329fdcdd69c19b3b7815e6977be52071f46c",
    "T-12/report.md":
        "3d0279362b9b8c84ca2c597df5fbb4dce5ca24e1c1c6462df2530dbe7e5d3e85",
    "T-13.log.jsonl":
        "5d0a78ee1b00d812b07f4d00fcf5d53eafd64888fd2f276397cc5f4711757ce8",
    "T-13/chart_00_bar.svg":
        "9df311634defbe4e2cf144d3828386d6a26a78dabf5221c9c24f60ab9a869a8d",
    "T-13/findings.json":
        "f75b1c99810a7251e69502499f721a4a8ee6b9385737610c5c09bec23bf30ada",
    "T-13/report.md":
        "8ceedd7e81f66a9e09c34ec0de4958db5ae6a9f67c110cfdf8a15a6d3caf4f0f",
    "T-14.log.jsonl":
        "5fb28781d790f6cecbc86b731393b5be9d1e5b14ba8d4715ce9ea7117747290e",
    "T-14/chart_00_correlation_heatmap.svg":
        "fb41786429f189db7d27f52791296c7d1de067ee2f63b97b7ea5a5b468eea8d2",
    "T-14/findings.json":
        "4516a89ccbd4558c3c751e832c4f823abb2ae726c710230d543c1d1cdfaf4abb",
    "T-14/report.md":
        "f8dae83b138f5c9ba16bf8e51770c37b9a4dcb00af8f80c4d310b63111f41f55",
    "T-15.log.jsonl":
        "556783a6180602b84106b52d6e1d0332edd1aab014be3a59a75d3f25f2e79c63",
    "T-15/chart_00_bar.svg":
        "de9b65bb8a094f41ec9ec2a0df2366c753557ce90230422c08dbdd3646bebe43",
    "T-15/findings.json":
        "b56fa1ee336613bbec9c4dd0f21abf29bf0f71cda281859e4f6db17cd2fc9c75",
    "T-15/report.md":
        "817da082e6c1200808afb1348bdea551ea69f2470d9a9c147ab320d7238e3ea4",
    "benchmark.md":
        "193c5eba8377c3e738f06f16eb511baba9a7de2b0916eae3d3c6236d34718d13",
    "results.json":
        "4fb69386469ab7602a46a3004ebe57aba1984d283dadffae08c56896df79ecc5",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_digests(root, tmp_dir) -> dict:
    """Digest of every file under ``root`` by relative path, with
    ``tmp_dir`` replaced by a fixed token."""
    out = {}
    for dirpath, _dirnames, filenames in os.walk(root):
        for name in filenames:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                data = fh.read().replace(os.fsencode(tmp_dir), TMP_TOKEN)
            out[os.path.relpath(path, root).replace(os.sep, "/")] = sha256(data)
    return out


def run_digests(argv, tmp_dir) -> dict:
    """Run the CLI from ``tmp_dir`` with ``--out out``; digests of its
    stdout and of every file it wrote."""
    stdout = io.StringIO()
    cwd = os.getcwd()
    os.chdir(tmp_dir)
    try:
        with contextlib.redirect_stdout(stdout):
            code = main([*argv, "--out", "out"])
    finally:
        os.chdir(cwd)
    assert code == 0
    got = tree_digests(os.path.join(tmp_dir, "out"), tmp_dir)
    got["<stdout>"] = sha256(stdout.getvalue().encode("utf-8"))
    return got


def detect_digests(features: str, tmp_dir) -> dict:
    """``detect`` on a copy of the sample data named ``sample.csv``."""
    shutil.copy(os.path.join(DATA, "sample.csv"), tmp_dir)
    return run_digests(["detect", "sample.csv", "--features",
                        *features.split()], tmp_dir)


def bench_digests(tmp_dir) -> dict:
    """``bench`` on a copy of the shipped taskset; its session logs name
    the dataset by absolute path."""
    for name in ("sample.csv", "sample_taskset.json"):
        shutil.copy(os.path.join(DATA, name), tmp_dir)
    return run_digests(["bench", os.path.join(tmp_dir, "sample_taskset.json")],
                       tmp_dir)


def check(got: dict, want: dict) -> None:
    moved = {name: digest for name, digest in sorted(got.items())
             if want.get(name) != digest}
    gone = sorted(set(want) - set(got))
    assert not moved and not gone, (
        f"outputs moved (file: new digest): {moved}; files gone: {gone}")


@pytest.mark.parametrize("features", sorted(DETECT))
def test_detect_outputs_pinned(features, tmp_path):
    check(detect_digests(features, str(tmp_path)), DETECT[features])


def test_bench_outputs_pinned(tmp_path):
    check(bench_digests(str(tmp_path)), BENCH)
