"""The CLI's output on the six bundled fixtures, pinned byte for byte.

Each digest is the sha256 of one command's stdout on one fixture.  The JSON
digests were recorded before the triangle layer moved to plain tuples, and
the ``trace`` text-table digests before the table stopped rebuilding each
record's survivors.  ``validate`` times itself, so its ``seconds_*`` keys are
dropped before hashing.  A mismatch prints the output the command gave.
"""

import hashlib
import json

import pytest

from tricliq import FIXTURE_NAMES, format_edge_list, load_fixture
from tricliq.cli import main

COMMANDS = {
    "triangles": ("triangles", "--json"),
    "trace-exhaustive": ("trace", "--json", "--mode", "exhaustive"),
    "trace-early-stop": ("trace", "--json", "--mode", "early-stop"),
    "clique": ("clique", "--json"),
    "clique-all-min-edges": ("clique", "--all-min-edges", "--json"),
    "validate": ("validate", "--json"),
}

DIGESTS = {
    ("g1", "triangles"): "aec5b13d3922b257bd32d49ea3941db0c3312d1e08c0b87ff0f50d0f51b78620",
    ("g1", "trace-exhaustive"): "5107a98ec8630d4a27c8582bf603032b81879fefdab0bed98ab2969d95e52346",
    ("g1", "trace-early-stop"): "5107a98ec8630d4a27c8582bf603032b81879fefdab0bed98ab2969d95e52346",
    ("g1", "clique"): "0a8ef5c7942a644c1f42bbb5caaa857c5e8c88536d1b5839d8b8903af0e84245",
    ("g1", "clique-all-min-edges"): "41f90838c71fed67568d5603208a761f89fac98e37ae9d0549137b13cfd82383",
    ("g1", "validate"): "730b34f9a94a7ec9abf2df20b18ea4c22ff261b67f8aee756bb2fdaf5da1456e",
    ("g2", "triangles"): "1c4456ba91a24f8957f6ef5633e27c4a4a9427da7f0017a28c00f8c25b6b5b58",
    ("g2", "trace-exhaustive"): "172a4e5d5eb23e3295ce0504a823bd32d85ab1f9913659a8b5863cdf27826bb1",
    ("g2", "trace-early-stop"): "172a4e5d5eb23e3295ce0504a823bd32d85ab1f9913659a8b5863cdf27826bb1",
    ("g2", "clique"): "299a358f83d74297576fef33ab2c45e750d8758d2cf081d29d6ad2fef0899e24",
    ("g2", "clique-all-min-edges"): "72112e31f097f2d4001c422f471b53bba341610fa78d055cc1b67f42014e2fd3",
    ("g2", "validate"): "d93adc14f22659035812882128094c6fef76d9ab01b20d34485eff9677f3dbf9",
    ("g3", "triangles"): "508710489e4735433eaab754ce8a0b7c75a576c98c5fb03ceb244657e443bbd8",
    ("g3", "trace-exhaustive"): "ea4b6032530f1025ac79b887fe103e4d6e9e142122c6eee2bdbef288749ac7d4",
    ("g3", "trace-early-stop"): "ea4b6032530f1025ac79b887fe103e4d6e9e142122c6eee2bdbef288749ac7d4",
    ("g3", "clique"): "c9aba2cc75c22a4a87fe282904beeeae95e9c330e05c846ac12f058edec8b83b",
    ("g3", "clique-all-min-edges"): "76bc7aef4bc53d16c2006ef6490f41d02f54d9dc67ea536c2a93b652d218aabf",
    ("g3", "validate"): "e93363c35dd55e527855702c480b22a6a0df9f389eefefb0e58bfb916564bfb1",
    ("g4", "triangles"): "1fd2edef3995ae8b7b94d37a075cd300387108f00afe0a3d51c9400ed053be71",
    ("g4", "trace-exhaustive"): "e1d0a2926c033fd9ac3b1d44570d953a65460a2867eb57c323079d9201920225",
    ("g4", "trace-early-stop"): "e1d0a2926c033fd9ac3b1d44570d953a65460a2867eb57c323079d9201920225",
    ("g4", "clique"): "94da66bc52e7bca9094c33b73d1af4f742f253696a51c6c848a3a620f7b35af0",
    ("g4", "clique-all-min-edges"): "d9611535b652ad03dfebce5c61e9798f8a2f38b2d287a780cd1ff30ff035d97b",
    ("g4", "validate"): "1a1c74127bc5ff956084c82dcae18f684daca90fe33dc4a3ffeab670d4f8b514",
    ("turan13", "triangles"): "3ceeb2ffe09cbdf40972ba5473bce7f182ba2046e210c8927a9612c2b2c0a1eb",
    ("turan13", "trace-exhaustive"): "53c4596088a00057b1951580797c19a1820dafc43a2af520651238ffc3ac6754",
    ("turan13", "trace-early-stop"): "53c4596088a00057b1951580797c19a1820dafc43a2af520651238ffc3ac6754",
    ("turan13", "clique"): "62fbc13e80a28b06981745ac0e2c2b0151c70b8ee0c39baf764522dafdb4ae8b",
    ("turan13", "clique-all-min-edges"): "20c10bed117d2d070d1a55fd8aabfcb57842f0a51f76f21611fcbac8657eec9a",
    ("turan13", "validate"): "fa64e2c3d0dd61566c4821ee2a9efe307cf2d402fcaa7a501543191b3ae0a6ce",
    ("moon_moser_12", "triangles"): "4cf006048e4da8dde735e2367779c251801d19e74cb94e4a49f064d030509e90",
    ("moon_moser_12", "trace-exhaustive"): "b4ecd56e0bd3a5edcf721fce528ded5ca61d6ead7b12c7907c856d264d3fb1ff",
    ("moon_moser_12", "trace-early-stop"): "b4ecd56e0bd3a5edcf721fce528ded5ca61d6ead7b12c7907c856d264d3fb1ff",
    ("moon_moser_12", "clique"): "de95c7c775e04ecb58fcb8bbb3b3878b0555cffbb45135db62ac5d5e6b144f86",
    ("moon_moser_12", "clique-all-min-edges"): "5800e22e3ab98d7eadb40e82d6ddf225ac183951fbbec50b1ac4e520bcaf837f",
    ("moon_moser_12", "validate"): "39b12e6dc2d441c472134a55420b3df966bd009d66417704fb3b93c8a90dd723",
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("command", COMMANDS)
def test_json_output_is_unchanged(capsys, tmp_path, name, command):
    path = tmp_path / f"{name}.edges"
    path.write_text(format_edge_list(load_fixture(name).graph))
    cmd, *flags = COMMANDS[command]
    assert main([cmd, str(path), *flags]) == 0
    out = capsys.readouterr().out
    if cmd == "validate":
        out = json.dumps({k: v for k, v in json.loads(out).items()
                          if not k.startswith("seconds_")})
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == DIGESTS[name, command], \
        f"tricliq {cmd} {name} {' '.join(flags)} printed:\n{out}"


TRACE_TEXT_DIGESTS = {
    ("g1", "exhaustive"): "854c4a0f3f6e68b9e8938601cc29301161a05b849df6eb49f721b9858cb2860c",
    ("g1", "early-stop"): "854c4a0f3f6e68b9e8938601cc29301161a05b849df6eb49f721b9858cb2860c",
    ("g2", "exhaustive"): "dac0a02881653ca82a812fc463d820148aa6d784300bfe089e240e470f383764",
    ("g2", "early-stop"): "ae67823ebb02d89e24b8a986c3a2c52309b355b4900cfd0845e271aea5936ad5",
    ("g3", "exhaustive"): "c50de17f4b722e6de1b9f1c0a3f1c4c4294b2a074bdb99e3dcd9345c564103da",
    ("g3", "early-stop"): "c50de17f4b722e6de1b9f1c0a3f1c4c4294b2a074bdb99e3dcd9345c564103da",
    ("g4", "exhaustive"): "52af2fdc771c46f0793ed421b93e93842998823bd160bb7501fc75db2329d4e3",
    ("g4", "early-stop"): "173ef07688fefab39ce933386eb4e7fb513ed2fd02f6e046f32e614df8db28cf",
    ("turan13", "exhaustive"): "491030e4620a6fd4baea074b6c93b105121d526572e81ecc616dd9d8f635599a",
    ("turan13", "early-stop"): "17e243cfed96277be6828dceb9caa8fbbb37c059b6b7dcf508290e9db7f2f45a",
    ("moon_moser_12", "exhaustive"): "94b26c8ba27715fd7aa92b73c18edbe8b599490ceb71f6730d0b4480324ec21d",
    ("moon_moser_12", "early-stop"): "94b26c8ba27715fd7aa92b73c18edbe8b599490ceb71f6730d0b4480324ec21d",
}


@pytest.mark.parametrize("name", FIXTURE_NAMES)
@pytest.mark.parametrize("mode", ("exhaustive", "early-stop"))
def test_trace_text_is_unchanged(capsys, tmp_path, name, mode):
    path = tmp_path / f"{name}.edges"
    path.write_text(format_edge_list(load_fixture(name).graph))
    assert main(["trace", str(path), "--mode", mode]) == 0
    out = capsys.readouterr().out
    digest = hashlib.sha256(out.encode()).hexdigest()
    assert digest == TRACE_TEXT_DIGESTS[name, mode], \
        f"tricliq trace {name} --mode {mode} printed:\n{out}"
