"""Command-line surface and its exit-code contract."""

from __future__ import annotations

import functools
import gc
import json
import os
import subprocess
import sys

import pytest

from sunurd import (
    IngredientSource,
    ParamTuple,
    build,
    cycle_factorization_odd,
    dumps_document,
    load_seed_catalog,
    to_document,
    urd6_h3,
    validate_cycle_factorization,
)
from sunurd import __main__ as entry
from sunurd import cli
from sunurd.cli import main


class TestSpectrum:
    def test_text_output(self, capsys):
        assert main(["spectrum", "--v", "12", "--h", "3"]) == 0
        assert capsys.readouterr().out.strip() == "(3,4) (7,2) (11,0)"

    def test_empty_with_reason_still_exit_0(self, capsys):
        assert main(["spectrum", "--v", "8", "--h", "3"]) == 0
        out = capsys.readouterr().out
        assert "no admissible pairs" in out

    def test_json_output(self, capsys):
        assert main(["spectrum", "--v", "20", "--h", "5", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == [[3, 8], [7, 6], [11, 4], [15, 2], [19, 0]]

    def test_json_empty_carries_reason(self, capsys):
        assert main(["spectrum", "--v", "10", "--h", "3", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pairs"] == [] and "reason" in payload

    def test_bad_flags_exit_2(self, capsys):
        assert main(["spectrum", "--v", "twelve", "--h", "3"]) == 2
        assert main(["spectrum", "--v", "12"]) == 2
        assert main(["spectrum", "--v", "12", "--h", "2"]) == 2

    def test_order_above_cap_exit_2(self, capsys):
        assert main(["spectrum", "--v", "600000000", "--h", "3"]) == 2
        assert "--v <= 1000000" in capsys.readouterr().err


class TestBuild:
    def test_build_writes_verified_document(self, tmp_path, capsys):
        out = tmp_path / "k6.json"
        code = main(["build", "--v", "6", "--h", "3", "--r", "1", "--s", "2", "--out", str(out)])
        assert code == 0
        doc = json.loads(out.read_text(encoding="utf-8"))
        types = [c["type"] for c in doc["classes"]]
        assert types.count("one_factor") == 1 and types.count("sun_factor") == 2

    def test_build_to_stdout(self, capsys):
        assert main(["build", "--v", "6", "--h", "3", "--r", "5", "--s", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["classes"]) == 5

    def test_text_format(self, capsys):
        assert main(["build", "--v", "6", "--h", "3", "--r", "1", "--s", "2", "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "(0,2,4; 3,5,1)" in out

    def test_order_above_cap_exit_2(self, capsys):
        assert main(["build", "--v", "20000", "--h", "3", "--r", "19999", "--s", "0"]) == 2
        assert "at most 2048" in capsys.readouterr().err

    def test_inadmissible_exit_3_with_reason(self, capsys):
        code = main(["build", "--v", "12", "--h", "3", "--r", "4", "--s", "4"])
        assert code == 3
        assert "edge-count: r+2s must equal v-1" in capsys.readouterr().err

    def test_ingredient_unavailable_exit_4_names_factorization(self, capsys):
        code = main(["build", "--v", "24", "--h", "3", "--r", "3", "--s", "10"])
        assert code == 4
        err = capsys.readouterr().err
        assert "ingredient-unavailable" in err
        assert "K_12" in err
        assert err.rstrip().endswith("nonexistent after 0 search nodes")

    def test_ingredient_unavailable_exit_4_counts_search_nodes(self, capsys, monkeypatch):
        small_budget = functools.partial(IngredientSource, budget=10)
        monkeypatch.setattr("sunurd.factorizations.IngredientSource", small_budget)
        code = main(["build", "--v", "36", "--h", "3", "--r", "7", "--s", "14"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("ingredient-unavailable: no 3-cycle factorization of K_18")
        assert err.rstrip().endswith("budget-exhausted after 10 search nodes")

    def test_unwritable_out_exit_5(self, tmp_path, capsys):
        code = main(
            ["build", "--v", "6", "--h", "3", "--r", "1", "--s", "2",
             "--out", str(tmp_path / "no" / "such" / "dir" / "x.json")]
        )
        assert code == 5

    def test_seed_dir_flag(self, tmp_path, capsys):
        (tmp_path / "k9.json").write_text(
            dumps_document(cycle_factorization_odd(9, 3)), encoding="utf-8"
        )
        code = main(
            ["build", "--v", "18", "--h", "3", "--r", "1", "--s", "8",
             "--seed-dir", str(tmp_path)]
        )
        assert code == 0

    def test_seed_dir_env_fallback(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "k9.json").write_text(
            dumps_document(cycle_factorization_odd(9, 3)), encoding="utf-8"
        )
        monkeypatch.setenv("SUNURD_SEED_DIR", str(tmp_path))
        assert main(["build", "--v", "18", "--h", "3", "--r", "5", "--s", "6"]) == 0

    def test_bad_seed_record_exit_2(self, tmp_path, capsys):
        (tmp_path / "junk.json").write_text("{oops", encoding="utf-8")
        code = main(
            ["build", "--v", "18", "--h", "3", "--r", "1", "--s", "8",
             "--seed-dir", str(tmp_path)]
        )
        assert code == 2

    def test_design_document_in_seed_dir_exit_2(self, tmp_path, capsys):
        (tmp_path / "x.json").write_text(dumps_document(urd6_h3((1, 2))), encoding="utf-8")
        code = main(
            ["build", "--v", "18", "--h", "3", "--r", "1", "--s", "8",
             "--seed-dir", str(tmp_path)]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err == "bad seed catalog: x.json: not a cycle-factorization record\n"

    def test_undecodable_seed_record_exit_2(self, tmp_path, capsys):
        (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{\x00}\x00")
        code = main(
            ["build", "--v", "12", "--h", "3", "--r", "7", "--s", "2",
             "--seed-dir", str(tmp_path)]
        )
        assert code == 2
        assert "utf16.json" in capsys.readouterr().err

    def test_missing_seed_dir_exit_5(self, tmp_path, capsys, monkeypatch):
        args = ["build", "--v", "12", "--h", "3", "--r", "7", "--s", "2"]
        plain_file = tmp_path / "plain.json"
        plain_file.write_text("{}", encoding="utf-8")
        for seed_dir in (tmp_path / "absent", plain_file):
            assert main(args + ["--seed-dir", str(seed_dir)]) == 5
            assert "cannot read seed catalog" in capsys.readouterr().err
            monkeypatch.setenv("SUNURD_SEED_DIR", str(seed_dir))
            assert main(args) == 5
            assert "cannot read seed catalog" in capsys.readouterr().err

    def test_broken_seed_dir_reported_before_inadmissible_tuple(self, tmp_path, capsys):
        # The catalog loads before build() screens the tuple, so its error wins.
        args = ["build", "--v", "12", "--h", "3", "--r", "4", "--s", "4",
                "--seed-dir", str(tmp_path)]
        (tmp_path / "dir.json").mkdir()
        assert main(args) == 5
        (tmp_path / "dir.json").rmdir()
        (tmp_path / "junk.json").write_text("{oops", encoding="utf-8")
        assert main(args) == 2
        assert "bad seed catalog" in capsys.readouterr().err


    def test_uncertified_seed_record_fails_only_the_build_that_uses_it(self, tmp_path, capsys):
        # K_9 with its first class dropped parses, so the directory loads;
        # only a build that resolves (9, 3, 'complete') certifies the record.
        doc = json.loads(dumps_document(cycle_factorization_odd(9, 3)))
        del doc["classes"][0]
        (tmp_path / "k9.json").write_text(json.dumps(doc), encoding="utf-8")
        seed = ["--seed-dir", str(tmp_path)]
        assert main(["build", "--v", "18", "--h", "3", "--r", "1", "--s", "8"] + seed) == 2
        assert capsys.readouterr().err == (
            "bad seed catalog: catalog entry (9, 3, 'complete') does not factor K_9 "
            "into 3-cycles: decomposition: missing-edge: edge (0, 1) never covered; "
            "decomposition: missing-edge: edge (0, 5) never covered; "
            "decomposition: missing-edge: edge (1, 5) never covered\n"
        )
        assert main(["build", "--v", "12", "--h", "3", "--r", "7", "--s", "2"] + seed) == 0
        assert main(["build", "--v", "12", "--h", "3", "--r", "4", "--s", "4"] + seed) == 3

    def test_seeded_build_certifies_its_record_once(self, tmp_path, capsys, monkeypatch):
        (tmp_path / "k9.json").write_text(
            dumps_document(cycle_factorization_odd(9, 3)), encoding="utf-8"
        )
        calls = []

        def counting(cf):
            calls.append(cf)
            return validate_cycle_factorization(cf)

        monkeypatch.setattr("sunurd.factorizations.validate_cycle_factorization", counting)
        code = main(
            ["build", "--v", "18", "--h", "3", "--r", "1", "--s", "8",
             "--seed-dir", str(tmp_path)]
        )
        assert code == 0
        assert len(calls) == 1


    @pytest.mark.parametrize(
        "t, seeded",
        [
            ((12, 3, 3, 4), False),
            ((36, 6, 3, 16), False),
            ((18, 3, 1, 8), True),
            ((20, 10, 3, 8), False),
            ((40, 5, 19, 10), False),
            ((24, 3, 23, 0), False),
        ],
        ids=[
            "fixed-12-3", "searched-36-6", "seed-dir-18-3",
            # A Hamiltonian ingredient, both fills; several cycles per base
            # class, matchings only in the fill; pure matchings.
            "hamiltonian-20-10", "cycles-40-5", "matchings-24-3",
        ],
    )
    def test_build_writes_the_design_it_certified_as_it_stands(
        self, tmp_path, capsys, monkeypatch, t, seeded
    ):
        # build() returns the canonical form, so the CLI writes the bytes
        # dumps_document gives without running canonical_decomposition, to
        # stdout and to --out alike.
        v, h, r, s = t
        argv = ["build", "--v", str(v), "--h", str(h), "--r", str(r), "--s", str(s)]
        source = None
        if seeded:
            # A K_9 record with every cycle written backwards, out of canonical form.
            doc = to_document(cycle_factorization_odd(9, 3))
            for cls in doc["classes"]:
                for cycle in cls["cycles"]:
                    cycle.reverse()
            (tmp_path / "k9.json").write_text(json.dumps(doc), encoding="utf-8")
            argv += ["--seed-dir", str(tmp_path)]
            source = IngredientSource(catalog=load_seed_catalog(tmp_path))
        want = dumps_document(build(ParamTuple(*t), source=source), h=h)

        def refuse(dec):
            raise AssertionError("sunurd build ran a second canonical pass")

        monkeypatch.setattr("sunurd.writer.canonical_decomposition", refuse)
        assert main(argv) == 0
        assert capsys.readouterr().out == want
        out = tmp_path / "out.json"
        assert main([*argv, "--out", str(out)]) == 0
        assert out.read_bytes() == want.encode()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_device_out_exit_5_without_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "sunurd", "build", "--v", "40", "--h", "5", "--r", "19",
             "--s", "10", "--out", "/dev/full"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 5
        assert proc.stderr.startswith("cannot write /dev/full: ")
        assert "Traceback" not in proc.stderr


class TestVerify:
    def test_round_trip_passes(self, tmp_path, capsys):
        path = tmp_path / "d.json"
        main(["build", "--v", "12", "--h", "3", "--r", "7", "--s", "2", "--out", str(path)])
        capsys.readouterr()
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out.strip() == "(r,s)=(7,2)"

    def test_perturbed_design_exit_1(self, tmp_path, capsys):
        doc = json.loads(dumps_document(urd6_h3((1, 2)), h=3))
        # reattach one pendant: breaks both the class partition and the edges
        doc["classes"][0]["suns"][0]["pendants"][0] = 4
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == 1
        out = capsys.readouterr().out
        assert "missing-edge" in out or "duplicated-edge" in out

    def test_parse_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "junk.json"
        path.write_text("not json at all", encoding="utf-8")
        assert main(["verify", str(path)]) == 2

    def test_non_object_class_exit_2(self, tmp_path, capsys):
        doc = {
            "format_version": "1",
            "host": {"kind": "complete", "v": 3},
            "h": 3,
            "classes": [{"type": "cycle_factor", "cycles": [[0, 1, 2]]}, 5],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert "each class must be an object" in capsys.readouterr().err

    def test_loop_in_removed_matching_exit_2(self, tmp_path, capsys):
        doc = {
            "format_version": "1",
            "host": {"kind": "complete_minus_f", "v": 4, "matching": [[0, 0], [1, 2]]},
            "h": 4,
            "classes": [],
        }
        path = tmp_path / "loop.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert "host.matching entries must not be loops" in capsys.readouterr().err

    def test_boolean_host_order_exit_2(self, tmp_path, capsys):
        doc = {
            "format_version": "1",
            "host": {"kind": "complete", "v": True},
            "h": 3,
            "classes": [],
        }
        path = tmp_path / "bool.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert "host.v must be an integer" in capsys.readouterr().err

    def test_undecodable_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "utf16.json"
        path.write_bytes(b"\xff\xfe{\x00}\x00")
        assert main(["verify", str(path)]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_deeply_nested_document_exit_2(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000, encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert "nested too deeply" in capsys.readouterr().err

    def test_overlong_integer_exit_2(self, tmp_path, capsys):
        doc = json.loads(dumps_document(urd6_h3((1, 2))))
        text = json.dumps(doc).replace('"v": 6', '"v": ' + "9" * 5_000)
        path = tmp_path / "long_v.json"
        path.write_text(text, encoding="utf-8")
        assert main(["verify", str(path)]) == 2
        assert "out of range" in capsys.readouterr().err

    def test_declared_order_above_cap_exit_1(self, tmp_path, capsys):
        # A valid document whose declared order the blocks cannot cover: one
        # finding, before the n*n slot index is allocated.
        doc = json.loads(dumps_document(urd6_h3((1, 2)), h=3))
        doc["host"]["v"] = 3_000_000
        path = tmp_path / "big_v.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["verify", str(path)]) == 1
        assert capsys.readouterr().out == (
            "decomposition: malformed-host: host order 3000000 is above the cap of 2048 vertices\n"
        )

    def test_missing_file_exit_5(self, tmp_path, capsys):
        assert main(["verify", str(tmp_path / "absent.json")]) == 5

    def test_cycle_factorization_document(self, tmp_path, capsys):
        path = tmp_path / "cf.json"
        path.write_text(dumps_document(cycle_factorization_odd(9, 3)), encoding="utf-8")
        assert main(["verify", str(path)]) == 0
        assert "cycle-factorization" in capsys.readouterr().out

    def test_seed_record_summary(self, tmp_path, capsys):
        # bench/run.py requires this line for the catalog-h4 record.
        path = tmp_path / "k9.json"
        path.write_text(dumps_document(cycle_factorization_odd(9, 3)), encoding="utf-8")
        assert main(["verify", str(path)]) == 0
        assert capsys.readouterr().out == "cycle-factorization: 4 classes of 3-cycles\n"


ENTRY_CALLS = [
    (["spectrum", "--v", "12", "--h", "3"], 0, "(3,4) (7,2) (11,0)\n"),
    (["spectrum", "--v", "twelve", "--h", "3"], 2, ""),
    (["build", "--v", "14", "--h", "3", "--r", "1", "--s", "6"], 3, ""),
]


def test_module_entry_point_runs():
    # The entry exits through sys.exit, so atexit handlers still run after
    # main's output is flushed.
    script = (
        "import atexit, runpy, sys; atexit.register(print, 'atexit ran'); "
        "sys.argv[0] = 'sunurd'; runpy.run_module('sunurd', run_name='__main__')"
    )
    for args, code, out in ENTRY_CALLS:
        command = [sys.executable, "-m", "sunurd", *args]
        proc = subprocess.run(command, capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (code, out), args
        assert "Traceback" not in proc.stderr
        proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True)
        assert (proc.returncode, proc.stdout) == (code, out + "atexit ran\n"), args


def test_process_entry_freezes_after_main_and_exits_with_its_code(monkeypatch):
    events = []

    def fake_main(argv=None):
        events.append(("main", argv, gc.isenabled()))
        return 3

    was = gc.isenabled()
    with monkeypatch.context() as patch:
        patch.setattr(cli, "main", fake_main)
        patch.setattr(gc, "freeze", lambda: events.append(("freeze",)))
        patch.setattr(sys, "exit", lambda code=None: events.append(("exit", code)))
        gc.enable()
        try:
            entry.run()
        finally:
            (gc.enable if was else gc.disable)()
    assert events == [("main", None, False), ("freeze",), ("exit", 3)]


# Enters like the installed script: imports the entry, then calls it.  A
# gc.callbacks hook, set after a full collection, records every collection
# that starts from then until the atexit handlers, which run after main.
WATCHED_ENTRY = """
import atexit, gc, sys
gc.collect()
starts = []
gc.callbacks.append(lambda phase, info: phase == "start" and starts.append(info["generation"]))
atexit.register(lambda: (gc.callbacks.clear(), print("collections:", starts, file=sys.stderr)))
from sunurd.__main__ import run
sys.argv[0] = "sunurd"
run()
"""


@pytest.mark.parametrize(
    "args",
    [
        ["spectrum", "--v", "12", "--h", "3"],
        ["build", "--v", "12", "--h", "3", "--r", "3", "--s", "4"],
    ],
)
def test_no_collection_runs_before_main_without_a_bytecode_cache(tmp_path, args):
    # The cache prefix is an empty directory and nothing is written, so
    # every module is compiled; entered through an import of ``cli`` with
    # the collector on, a young collection runs while cli.py compiles.
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPYCACHEPREFIX=str(tmp_path))
    proc = subprocess.run(
        [sys.executable, "-c", WATCHED_ENTRY, *args], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == "collections: []\n"
    assert list(tmp_path.iterdir()) == []


def test_importing_the_entry_loads_no_cli():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, sunurd.__main__; print('sunurd.cli' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.stdout == "False\n", proc.stderr


@pytest.mark.parametrize("subcommand", ["spectrum", "verify", "build"])
def test_closed_stdout_exit_5_without_traceback(tmp_path, subcommand):
    # Each prints megabytes, far more than a pipe buffers, so the write after
    # the reader has gone fails.
    if subcommand == "spectrum":
        args = ["spectrum", "--v", "1000000", "--h", "4", "--format", "json"]
    elif subcommand == "build":
        args = ["build", "--v", "400", "--h", "200", "--r", "203", "--s", "98"]
    else:
        doc = json.loads(dumps_document(urd6_h3((1, 2)), h=3))
        doc["host"]["v"] = 600
        path = tmp_path / "v600.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        args = ["verify", str(path)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "sunurd", *args], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 5
    assert b"Traceback" not in err


# The command-line grammar: argv, then the subcommand it runs and the values
# it passes, by field.  Every row parsed the same way with argparse.
SPECTRUM = {"v": 12, "h": 3, "format": "text"}
BUILD_ARGS = ["--v", "12", "--h", "3", "--r", "3", "--s", "4"]
BUILD = {"v": 12, "h": 3, "r": 3, "s": 4, "out": None, "format": "json", "seed_dir": None}
FIELDS = {"spectrum": SPECTRUM, "build": BUILD, "verify": {"path": None}}
PARSES = [
    (["spectrum", "--v", "12", "--h", "3"], "spectrum", SPECTRUM),
    (["spectrum", "--v=12", "--h=3"], "spectrum", SPECTRUM),
    (["spectrum", "--h", "3", "--v", "12"], "spectrum", SPECTRUM),
    (["spectrum", "--v", " 12 ", "--h", "+3"], "spectrum", SPECTRUM),
    (["spectrum", "--v", "5", "--h", "3", "--v", "12"], "spectrum", SPECTRUM),
    (["spectrum", "--v", "12", "--h", "3", "--form", "json"], "spectrum",
     {**SPECTRUM, "format": "json"}),
    (["spectrum", "--v", "12", "--h", "3", "--f=json"], "spectrum",
     {**SPECTRUM, "format": "json"}),
    (["spectrum", "--v", "-12", "--h", "-3"], "spectrum", {**SPECTRUM, "v": -12, "h": -3}),
    (["build", *BUILD_ARGS], "build", BUILD),
    (["build", "--v", "-4", "--h", "3", "--r", "3", "--s", "4"], "build", {**BUILD, "v": -4}),
    (["build", "--v=-4", "--h", "3", "--r", "3", "--s", "4"], "build", {**BUILD, "v": -4}),
    (["build", *BUILD_ARGS, "--seed", "d", "--o", "x.json", "--form", "text"], "build",
     {**BUILD, "seed_dir": "d", "out": "x.json", "format": "text"}),
    (["build", *BUILD_ARGS, "--seed-dir=a", "--seed-dir", "b=c"], "build",
     {**BUILD, "seed_dir": "b=c"}),
    (["build", *BUILD_ARGS, "--out", "-"], "build", {**BUILD, "out": "-"}),
    (["build", *BUILD_ARGS, "--out="], "build", {**BUILD, "out": ""}),
    (["build", "--out", "-5", *BUILD_ARGS], "build", {**BUILD, "out": "-5"}),
    (["verify", "d.json"], "verify", {"path": "d.json"}),
    (["verify", "--", "d.json"], "verify", {"path": "d.json"}),
    (["verify", "--", "-d.json"], "verify", {"path": "-d.json"}),
    (["verify", "-"], "verify", {"path": "-"}),
    (["verify", "-5"], "verify", {"path": "-5"}),
    (["verify", "-a b"], "verify", {"path": "-a b"}),
]
HELP = [
    ["-h"], ["--help"], ["--he"], ["-h", "bogus"], ["spectrum", "-h"], ["build", "--help"],
    ["build", "--hel"], ["verify", "-h"], ["spectrum", "--v", "12", "-h"],
    ["verify", "--help", "a.json", "b.json"],
]
USAGE_ERRORS = [
    [],
    ["bogus"],
    ["--v", "12", "spectrum", "--h", "3"],
    ["spectrum", "--v", "12", "--h", "3", "--bogus"],
    ["spectrum", "--v", "12", "--h", "3", "-x"],
    ["spectrum", "--v", "12", "--h", "3", "--v12"],
    ["spectrum", "--v", "12"],
    ["build", "--v", "12", "--h", "3", "--r", "3"],
    ["spectrum", "--v", "twelve", "--h", "3"],
    ["spectrum", "--v", "12.0", "--h", "3"],
    ["spectrum", "--v=", "--h", "3"],
    ["spectrum", "--v", "12", "--h", "3", "--format", "xml"],
    ["spectrum", "--v", "12", "--h", "3", "--format=JSON"],
    ["spectrum", "--v", "12", "--h", "3", "extra"],
    ["verify", "a.json", "b.json"],
    ["verify", "--", "a.json", "b.json"],
    ["verify"],
    ["verify", "--path", "a.json"],
    ["spectrum", "--h", "3", "--v"],
    ["build", *BUILD_ARGS, "--out"],
    ["build", *BUILD_ARGS, "--out", "--format", "text"],
    ["build", *BUILD_ARGS, "--out", "--"],
    ["spectrum", "--v", "12", "--h", "3", "--help=x"],
]


def parsed(monkeypatch, argv: list[str]) -> tuple[int, tuple[str, dict] | None]:
    """main's exit code for argv with each subcommand replaced by a recorder,
    and the subcommand it ran with its values (None when none ran)."""
    ran = []

    def recorder(name):
        def record(args):
            ran.append((name, {key: getattr(args, key) for key in FIELDS[name]}))
            return 0
        return record

    for name in FIELDS:
        monkeypatch.setattr(cli, f"cmd_{name}", recorder(name))
    code = main(argv)
    return code, ran[0] if ran else None


@pytest.mark.parametrize("argv, command, values", PARSES)
def test_accepted_command_lines(monkeypatch, capsys, argv, command, values):
    assert parsed(monkeypatch, argv) == (0, (command, values))
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("argv", HELP)
def test_help_prints_usage_and_exits_0(monkeypatch, capsys, argv):
    assert parsed(monkeypatch, argv) == (0, None)
    out, err = capsys.readouterr()
    prog = " ".join(["sunurd", *[a for a in argv[:1] if a in FIELDS]])
    assert out.startswith(f"usage: {prog} ") and err == ""


@pytest.mark.parametrize("argv", USAGE_ERRORS)
def test_usage_errors_exit_2(monkeypatch, capsys, argv):
    assert parsed(monkeypatch, argv) == (2, None)
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: sunurd") and "error: " in err
    assert "Traceback" not in err


def test_negative_order_reaches_build(capsys):
    # -4 is a value, not an option: the build runs and rejects the tuple.
    assert main(["build", "--v", "-4", "--h", "3", "--r", "3", "--s", "4"]) == 3
