"""How the package's modules depend on each other: the verifier stays
independent of the builders, each CLI subcommand loads only the modules it
runs (and neither ``dataclasses`` nor ``inspect``), only a build that
searches loads the search engine, and the package exports its public names
from their home modules."""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sunurd

# The package's public names by the module that defines them.
EXPORTS = {
    "base_designs": ["UrgddKind", "one_factorization", "urd6_h3", "urd12_h3", "urgdd_ch2"],
    "builder": [
        "BuildPlan", "InadmissibleTuple", "Route", "build", "build_all",
        "build_with_plan", "inflate_cycle", "plan",
    ],
    "core": [
        "CycleFactorization", "Decomposition", "Edge", "Finding", "HostGraph",
        "ParallelClass", "Sun", "VerificationReport", "edge", "host_edges",
        "host_vertices", "sun_edges", "validate_cycle_factorization", "verify",
        "vertex_profile",
    ],
    "factorizations": [
        "IngredientSource", "IngredientUnavailable", "SearchResult", "SeedCatalogError",
        "cycle_factorization_minus_f", "cycle_factorization_odd", "load_seed_catalog",
        "search_cycle_factorization",
    ],
    "serialization": ["Document", "DocumentFormatError", "from_document", "loads_document"],
    "spectrum": [
        "Admissibility", "ParamTuple", "Reason", "SpectrumPair", "admissible_pairs",
        "check_necessary", "enumerate_by_counting", "inadmissibility_reason",
    ],
    "writer": [
        "canonical_cycle", "canonical_decomposition", "canonicalize_sun", "dumps_document",
        "to_document",
    ],
}
EXPORTED = [(home, name) for home, names in EXPORTS.items() for name in names]


def relative_imports(module: str) -> set[str]:
    """The package modules that ``module``.py imports with ``from .``."""
    source = (Path(sunurd.__file__).parent / f"{module}.py").read_text(encoding="utf-8")
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            found.update([node.module] if node.module else [a.name for a in node.names])
    return found


def test_core_has_no_relative_import():
    assert relative_imports("core") == set()


def test_serialization_imports_no_builder():
    assert relative_imports("serialization") & {"factorizations", "builder", "cli"} == set()


def test_format_version_lives_in_core_and_the_reader_reexports_it():
    from sunurd import core, serialization

    assert serialization.FORMAT_VERSION is core.FORMAT_VERSION == "1"
    assert "serialization" not in relative_imports("writer")


class TestPackageSurface:
    def test_all_lists_every_export(self):
        assert sorted(sunurd.__all__) == sorted(name for _, name in EXPORTED)

    @pytest.mark.parametrize("home, name", EXPORTED)
    def test_export_is_its_home_object(self, home, name):
        module = importlib.import_module(f"sunurd.{home}")
        assert getattr(sunurd, name) is getattr(module, name)
        assert name in dir(sunurd)

    def test_star_import_binds_every_export(self):
        namespace: dict = {}
        exec("from sunurd import *", namespace)
        for home, name in EXPORTED:
            assert namespace[name] is getattr(importlib.import_module(f"sunurd.{home}"), name)

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            sunurd.no_such_name
        assert sunurd.__version__ == "0.1.0"

    @pytest.mark.parametrize("name", ["SearchResult", "search_cycle_factorization"])
    def test_search_names_are_one_object_on_three_paths(self, name):
        from sunurd import factorizations, search

        assert getattr(sunurd, name) is getattr(factorizations, name) is getattr(search, name)

    def test_factorizations_forwards_only_the_public_search_names(self):
        from sunurd import factorizations, search

        for name in ("QUOTIENT_NODES", "_quotient_search", "_search"):
            assert hasattr(search, name)
            with pytest.raises(AttributeError, match=name):
                getattr(factorizations, name)

    def test_factorizations_dir_lists_the_forwarded_names(self):
        # Like the package's: what the module answers for, dir() lists.
        from sunurd import factorizations

        listed = dir(factorizations)
        assert {"SearchResult", "search_cycle_factorization"} <= set(listed)
        assert "cycle_factorization_odd" in listed and listed == sorted(listed)


SRC = Path(sunurd.__file__).resolve().parent.parent

# Runs cli.main on argv in a fresh interpreter, then prints its exit code and
# every module loaded, as JSON.  BARE prints what the interpreter and its
# site load without sunurd.  Both take the list before they import json.
LOADED_AFTER = """
import sys
from sunurd import cli
code = cli.main(sys.argv[1:])
modules = sorted(sys.modules)
import json
print(json.dumps([code, modules]))
"""
BARE = """
import sys
modules = sorted(sys.modules)
import json
print(json.dumps([0, modules]))
"""


def modules_after(script: str, *argv: str, flags: tuple[str, ...] = ()) -> tuple[int, set[str]]:
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    env.pop("SUNURD_SEED_DIR", None)
    proc = subprocess.run(
        [sys.executable, *flags, "-c", script, *argv],
        capture_output=True,
        text=True,
        env=env,
        check=True,
    )
    code, modules = json.loads(proc.stdout.splitlines()[-1])
    return code, set(modules)


def loaded_after(*argv: str) -> tuple[int, set[str]]:
    """The exit code of ``sunurd argv`` and the package modules it loaded."""
    code, modules = modules_after(LOADED_AFTER, *argv)
    return code, {m for m in modules if m.partition(".")[0] == "sunurd"}


class TestSubcommandImports:
    SEARCH_AND_BUILD = {
        "sunurd.builder", "sunurd.factorizations", "sunurd.base_designs", "sunurd.writer"
    }

    def test_spectrum_loads_only_spectrum(self):
        assert loaded_after("spectrum", "--v", "12", "--h", "3") == (
            0,
            {"sunurd", "sunurd.cli", "sunurd.spectrum"},
        )

    def test_verify_loads_no_builder_or_search(self, tmp_path):
        path = tmp_path / "design.json"
        code, modules = loaded_after(
            "build", "--v", "12", "--h", "3", "--r", "3", "--s", "4", "--out", str(path)
        )
        assert code == 0
        assert self.SEARCH_AND_BUILD <= modules
        code, modules = loaded_after("verify", str(path))
        assert code == 0
        assert modules & self.SEARCH_AND_BUILD == set()
        assert modules == {"sunurd", "sunurd.cli", "sunurd.core", "sunurd.serialization"}

    @staticmethod
    def beyond_bare(tmp_path, *flags: str) -> dict[str, set[str]]:
        """Per subcommand, the modules a call loads that the bare interpreter,
        run with the same flags, does not: what site imports differs between
        machines."""
        _, bare = modules_after(BARE, flags=flags)
        path = tmp_path / "design.json"
        found = {}
        for argv in (
            ("spectrum", "--v", "12", "--h", "3"),
            ("build", "--v", "12", "--h", "3", "--r", "3", "--s", "4", "--out", str(path)),
            ("verify", str(path)),
        ):
            code, modules = modules_after(LOADED_AFTER, *argv, flags=flags)
            assert code == 0
            found[argv[0]] = modules - bare
        return found

    def test_no_subcommand_loads_dataclasses_or_inspect(self, tmp_path):
        for command, modules in self.beyond_bare(tmp_path).items():
            assert modules & {"dataclasses", "inspect"} == set(), command

    def test_no_subcommand_loads_argparse_gettext_or_locale(self, tmp_path):
        for command, modules in self.beyond_bare(tmp_path).items():
            assert modules & {"argparse", "gettext", "locale"} == set(), command

    def test_cli_reads_with_open_not_pathlib(self, tmp_path):
        # Without site (-S), whose .pth files may import pathlib first.
        found = self.beyond_bare(tmp_path, "-S")
        assert "pathlib" not in found["spectrum"] | found["verify"]

    def test_build_without_seed_dir_loads_no_reader_json_or_pathlib(self, tmp_path):
        argv = ("build", "--v", "12", "--h", "3", "--r", "3", "--s", "4")
        code, modules = loaded_after(*argv, "--out", str(tmp_path / "d.json"))
        assert code == 0
        assert "sunurd.serialization" not in modules
        assert {"json", "pathlib"} & self.beyond_bare(tmp_path, "-S")["build"] == set()

    @staticmethod
    def seed_dir(tmp_path) -> Path:
        """A seed catalog holding a triangle factorization of K_9."""
        seeds = tmp_path / "seeds"
        seeds.mkdir()
        (seeds / "k9.json").write_text(
            sunurd.dumps_document(sunurd.cycle_factorization_odd(9, 3)), encoding="utf-8"
        )
        return seeds

    def test_build_with_seed_dir_loads_the_reader(self, tmp_path):
        seeds = self.seed_dir(tmp_path)
        argv = ("build", "--v", "18", "--h", "3", "--r", "1", "--s", "8", "--seed-dir", str(seeds))
        code, modules = loaded_after(*argv, "--out", str(tmp_path / "d.json"))
        assert code == 0
        assert "sunurd.serialization" in modules

    def test_only_a_build_that_searches_loads_the_search_engine(self, tmp_path):
        path = tmp_path / "d.json"
        seeds = str(self.seed_dir(tmp_path))
        without = [
            # A fixed design, a constructed ingredient (h = n) and a cataloged one.
            ("build", "--v", "12", "--h", "3", "--r", "3", "--s", "4", "--out", str(path)),
            ("verify", str(path)),
            ("build", "--v", "20", "--h", "10", "--r", "3", "--s", "8", "--out", str(path)),
            ("build", "--v", "18", "--h", "3", "--r", "1", "--s", "8", "--seed-dir", seeds),
        ]
        for argv in without:
            code, modules = loaded_after(*argv)
            assert code == 0, argv
            assert "sunurd.search" not in modules, argv
        code, modules = loaded_after("build", "--v", "30", "--h", "3", "--r", "1", "--s", "14")
        assert code == 0
        rest = {"sunurd", "sunurd.cli", "sunurd.core", "sunurd.spectrum", "sunurd.search"}
        assert modules == self.SEARCH_AND_BUILD | rest
