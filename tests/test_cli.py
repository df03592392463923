"""Command-line surface and its exit-code contract."""

from __future__ import annotations

import functools
import json
import subprocess
import sys

import pytest

from sunurd import (
    IngredientSource,
    cycle_factorization_odd,
    dumps_document,
    urd6_h3,
    validate_cycle_factorization,
)
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
            "into 3-cycles: decomposition: missing-edge: edge (0, 4) never covered; "
            "decomposition: missing-edge: edge (0, 8) never covered; "
            "decomposition: missing-edge: edge (1, 2) never covered\n"
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


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "sunurd", "spectrum", "--v", "12", "--h", "3"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "(3,4) (7,2) (11,0)"


@pytest.mark.parametrize("subcommand", ["spectrum", "verify"])
def test_closed_stdout_exit_5_without_traceback(tmp_path, subcommand):
    # Each prints megabytes, far more than a pipe buffers, so the write after
    # the reader has gone fails.
    if subcommand == "spectrum":
        args = ["spectrum", "--v", "1000000", "--h", "4", "--format", "json"]
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
