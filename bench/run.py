#!/usr/bin/env python3
"""Benchmark for the sunurd CLI: build/verify wall time, with a traced
per-layer breakdown.

    python3 bench/run.py --workload certify-large --seed 1 --seconds 42 --trace 0

Run it from the root of a source checkout; the program is taken from
``src/`` next to this directory, with nothing installed.  With ``--trace 0``
one client drives ``python -m sunurd`` as a closed loop (one child process
at a time, each waiting for the previous one) and the run reports the
end-to-end metrics.  With ``--trace 1`` each round also replays the same
calls in-process through the public functions of each module, one span per
layer boundary, and the run reports the per-layer metrics.  Every timing is
the median over the rounds that fit in ``--seconds``.

The build and verify metrics are wall times divided by the wall time of a
fixed job that does not use sunurd (``reference.py``), run once per round.
On a shared machine whose speed drifts by a third or more over minutes,
the plain seconds of two runs differ by more than any useful bound, but
the ratio does not; the plain seconds are printed, and reported per layer
as ``cli.*_s``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Scratch files,
spans and a full result record go to ``.bench_work/<workload>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import inputs
import traced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
REFERENCE = Path(__file__).resolve().parent / "reference.py"

# (v, h, r, s) per workload.  certify-large: one giant sun per class from the
# Hamiltonian construction, both fills mixed, so certification and
# serialization dominate and no search runs.  search-desk: tiny documents
# whose ingredients only the exact search finds today (K_15 triangles,
# K_16-F with h=4, K_18-F with h=6).  catalog-h4: the ingredient comes from
# a seed catalog and each class holds many small suns, so catalog loading
# and per-block assembly weigh in.
WORKLOADS = {
    "certify-large": [(400, 200, 203, 98)],
    "search-desk": [(30, 3, 1, 14), (32, 4, 3, 14), (36, 6, 3, 16)],
    "catalog-h4": [(400, 4, 3, 198)],
}
CATALOG_WORKLOADS = {"catalog-h4": 200}  # order n of the K_n - F seed record

SETUP_CALLS = 8
NOOP_ARGS = ["spectrum", "--v", "12", "--h", "3"]
NOOP_OUTPUT = "(3,4) (7,2) (11,0)"

END_TO_END = {
    "setup_s": "s",
    "build_rel": "ref",
    "verify_rel": "ref",
    "verify_fail_rel": "ref",
    "peak_rss_mb": "MB",
    "ops_ok": "ratio",
}

# Span name -> per-layer metric of its summed self time per round.
LAYER_TIMES = {
    "spectrum.check": "spectrum.check_s",
    "builder.plan": "builder.plan_s",
    "builder.assemble": "builder.assemble_s",
    "factorizations.catalog_load": "factorizations.catalog_load_s",
    "factorizations.ingredient": "factorizations.ingredient_s",
    "factorizations.validate": "factorizations.validate_s",
    "factorizations.search": "factorizations.search_s",
    "core.verify": "core.verify_s",
    "core.verify_fail": "core.verify_fail_s",
    "serialization.dumps": "serialization.dumps_s",
    "serialization.loads": "serialization.loads_s",
}
PER_LAYER = {
    **{m: "s" for m in LAYER_TIMES.values()},
    "factorizations.search_nodes": "count",
    "factorizations.search_nodes_per_s": "1/s",
    "factorizations.search_yield": "ratio",
    "core.verify_edges_per_s": "1/s",
    "core.findings": "count",
    "serialization.doc_mb": "MB",
    "cli.build_s": "s",
    "cli.verify_s": "s",
    "cli.verify_fail_s": "s",
    "cli.reference_s": "s",
    "cli.unaccounted_s": "s",
    "trace.overhead_s": "s",
}
CLI_TIMES = ("build_s", "verify_s", "verify_fail_s", "reference_s")
CLI_ROOTS = ("cli.build", "cli.verify", "cli.verify_fail")


@dataclass
class Job:
    """One (v, h, r, s) tuple of a workload and the files it produces."""

    tuple: tuple[int, int, int, int]
    out_path: Path
    seed_dir: Path | None = None
    corrupt_path: Path | None = None
    corruption: str = ""
    sha256: str = ""
    deterministic: bool = True
    doc_bytes: int = 0


class Cli:
    """Runs ``python -m sunurd`` one child at a time and keeps the tally."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("SUNURD_SEED_DIR", None)
        self.attempted = 0
        self.failed = 0
        self.peak_rss_kb = 0
        self.problems: list[str] = []

    def call(self, args: list[str], expect: int) -> tuple[float, str]:
        """Run one CLI call; returns its wall time and standard output.

        An unexpected exit code counts the call as failed.
        """
        out_file = self.workdir / "stdout.txt"
        err_file = self.workdir / "stderr.txt"
        with open(out_file, "wb") as out, open(err_file, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, "-m", "sunurd", *args],
                cwd=self.workdir, env=self.env, stdout=out, stderr=err,
            )
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.attempted += 1
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        stdout = out_file.read_text(encoding="utf-8", errors="replace")
        if proc.returncode != expect:
            stderr = err_file.read_text(encoding="utf-8", errors="replace").strip()
            self.fail(f"sunurd {' '.join(args)}: exit {proc.returncode}, expected {expect}: "
                      f"{stderr[-300:]}")
        return wall, stdout

    def reference(self) -> float:
        """Wall time of one run of the fixed job in reference.py."""
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(REFERENCE)], cwd=self.workdir,
                              env=self.env, stdout=subprocess.DEVNULL)
        wall = time.perf_counter() - start
        if proc.returncode != 0:
            self.problems.append(f"reference job exited {proc.returncode}")
        return wall

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def noop_call(cli: Cli, walls: list[float]) -> None:
    """A CLI call that does no real work; its wall time goes to ``walls``."""
    wall, stdout = cli.call(NOOP_ARGS, expect=0)
    walls.append(wall)
    if stdout.strip() != NOOP_OUTPUT:
        cli.fail(f"spectrum printed {stdout.strip()[:200]!r}")


def cli_round(cli: Cli, jobs: list[Job], rng: random.Random) -> dict:
    """One closed-loop pass: build every tuple, time the reference job,
    verify each document, then verify a seeded corruption of each.  Returns
    summed wall times."""
    build_s = verify_s = fail_s = 0.0
    walls = []
    for job in jobs:
        v, h, r, s = job.tuple
        args = ["build", "--v", str(v), "--h", str(h), "--r", str(r), "--s", str(s),
                "--out", str(job.out_path)]
        if job.seed_dir is not None:
            args += ["--seed-dir", str(job.seed_dir)]
        failed_before = cli.failed
        wall, _ = cli.call(args, expect=0)
        build_s += wall
        walls.append(wall)
        if cli.failed == failed_before:
            check_output(cli, job, rng)
    reference_s = cli.reference()

    for job in jobs:
        v, h, r, s = job.tuple
        wall, stdout = cli.call(["verify", str(job.out_path)], expect=0)
        verify_s += wall
        walls.append(wall)
        if stdout.strip() != f"(r,s)=({r},{s})":
            cli.fail(f"verify of {job.tuple} printed {stdout.strip()[:200]!r}")

    for job in jobs:
        if job.corrupt_path is None:  # its build already counted as failed
            continue
        wall, stdout = cli.call(["verify", str(job.corrupt_path)], expect=1)
        fail_s += wall
        walls.append(wall)
        if not stdout.strip():
            cli.fail(f"verify of corrupted {job.tuple} printed no findings")
    return {"build_s": build_s, "verify_s": verify_s, "verify_fail_s": fail_s,
            "reference_s": reference_s, "walls": walls}


def check_output(cli: Cli, job: Job, rng: random.Random) -> None:
    """Check a built document without sunurd and make its corruption once.

    A document whose bytes match the previous build of the same tuple was
    already checked.  A change of bytes between builds is recorded, not
    failed: it is information about determinism.
    """
    data = job.out_path.read_bytes()
    digest = hashlib.sha256(data).hexdigest()
    if digest == job.sha256:
        return
    if job.sha256:
        job.deterministic = False
    job.sha256 = digest
    text = data.decode("utf-8")
    problem = inputs.check_document(text, *job.tuple)
    if problem is not None:
        cli.fail(f"build of {job.tuple} wrote a bad document: {problem}")
        return
    if job.corrupt_path is None:
        corrupt, job.corruption = inputs.corrupt_document(text, rng)
        job.corrupt_path = job.out_path.with_name(job.out_path.stem + "-corrupt.json")
        job.corrupt_path.write_text(corrupt, encoding="utf-8")


def layer_metrics(spans: list[dict], rnd: int, jobs: list[Job], cli_round: dict,
                  setup_s: float, span_cost: float) -> dict[str, float]:
    """Per-layer metrics of one traced round."""
    own = traced.self_times(spans)
    m = {name: 0.0 for name in PER_LAYER}
    nodes = kept = edges = findings = 0
    roots = 0.0
    for s, self_s in zip(spans, own):
        if s["round"] != rnd:
            continue
        name, attrs = s["name"], s["attrs"]
        if name in LAYER_TIMES:
            m[LAYER_TIMES[name]] += self_s
        if name in CLI_ROOTS:
            roots += s["end"] - s["start"]
        nodes += attrs.get("nodes", 0)
        kept += attrs.get("kept", 0)
        edges += attrs.get("edges", 0)
        findings += attrs.get("findings", 0)
    m["factorizations.search_nodes"] = nodes
    if nodes:
        m["factorizations.search_nodes_per_s"] = nodes / m["factorizations.search_s"]
        m["factorizations.search_yield"] = kept / nodes
    m["core.verify_edges_per_s"] = edges / m["core.verify_s"]
    m["core.findings"] = findings
    m["serialization.doc_mb"] = sum(j.doc_bytes for j in jobs) / 1e6
    for name in CLI_TIMES:
        m[f"cli.{name}"] = cli_round[name]
    m["cli.unaccounted_s"] = sum(w - setup_s for w in cli_round["walls"]) - roots
    m["trace.overhead_s"] = span_cost * sum(1 for s in spans if s["round"] == rnd)
    return m


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout when it is a git work tree, else "unknown"."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "sunurd" / "__init__.py").is_file():
        print(f"no sunurd sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    workdir = ROOT / ".bench_work" / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cli = Cli(workdir)

    # Set-up: one warm-up call (it may compile bytecode), then several calls
    # that do no real work: interpreter start plus import.  One more such call
    # per round samples the same cost throughout the run.
    setup_walls: list[float] = []
    noop_call(cli, [])
    for _ in range(SETUP_CALLS):
        noop_call(cli, setup_walls)

    seed_dir = None
    if args.workload in CATALOG_WORKLOADS:
        seed_dir = workdir / "seeds"
        seed_dir.mkdir()
        record = seed_dir / "c4-minus-f.json"
        inputs.write_c4_seed_record(record, CATALOG_WORKLOADS[args.workload], rng)
        _, stdout = cli.call(["verify", str(record)], expect=0)
        if not stdout.startswith("cycle-factorization:"):
            cli.fail(f"seed record verify printed {stdout.strip()[:200]!r}")

    jobs = [Job(t, workdir / f"design-{i}.json", seed_dir=seed_dir)
            for i, t in enumerate(WORKLOADS[args.workload])]

    sd = None
    tracer = traced.Tracer()
    if args.trace:
        sys.path.insert(0, str(SRC))
        import sunurd as sd

        if not Path(sd.__file__).resolve().is_relative_to(SRC):
            print(f"imported sunurd from {sd.__file__}, not {SRC}", file=sys.stderr)
            return 2
        span_cost = traced.span_overhead()

    rounds: list[dict] = []
    start = time.perf_counter()
    while not cli.problems:
        round_start = time.perf_counter()
        rounds.append(cli_round(cli, jobs, rng))
        noop_call(cli, setup_walls)
        if sd is not None and not cli.problems:
            tracer.round = len(rounds) - 1
            for problem in traced.run_pass(sd, tracer, jobs, workdir):
                cli.fail(problem)
        now = time.perf_counter()
        if now - start + (now - round_start) > args.seconds:
            break
    setup_s = statistics.median(setup_walls)

    units = PER_LAYER if args.trace else END_TO_END
    metrics: dict[str, float] = {}
    layers = [layer_metrics(tracer.spans, i, jobs, r, setup_s, span_cost)
              for i, r in enumerate(rounds) if args.trace and not cli.problems]
    if layers:
        metrics = {name: statistics.median([m[name] for m in layers]) for name in PER_LAYER}
    elif not args.trace and rounds:
        metrics = {
            "setup_s": setup_s,
            **{f"{name[:-2]}_rel": statistics.median([r[name] / r["reference_s"] for r in rounds])
               for name in CLI_TIMES[:3]},
            "peak_rss_mb": cli.peak_rss_kb * 1024 / 1e6,
            "ops_ok": 1 - cli.failed / cli.attempted,
        }
    correct = not cli.problems and set(metrics) == set(units)

    env = environment()
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "rounds": len(rounds),
        "per_round": [{k: v for k, v in r.items() if k != "walls"} for r in rounds],
        "per_round_layers": layers,
        "documents": [{"tuple": j.tuple, "sha256": j.sha256, "deterministic": j.deterministic,
                       "corruption": j.corruption} for j in jobs],
        "problems": cli.problems,
    }
    (workdir / "result.json").write_text(json.dumps(detail, indent=2) + "\n", encoding="utf-8")
    if args.trace:
        (workdir / "spans.json").write_text(json.dumps(tracer.spans) + "\n", encoding="utf-8")

    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}, seed {args.seed}: {len(rounds)} rounds in "
          f"{time.perf_counter() - start:.1f} s, one client, closed loop")
    for doc in detail["documents"]:
        print(f"  {doc['tuple']}: sha256 {doc['sha256']} "
              f"deterministic={doc['deterministic']}; corruption {doc['corruption']}")
    if args.trace:
        for s in tracer.spans:
            if s["name"] == "factorizations.search" and s["round"] == 0:
                print(f"  search nodes: {s['attrs'].get('nodes')} "
                      f"(call {tracer.spans[s['parent']]['attrs']['call']})")
    for p in cli.problems:
        print(f"  problem: {p}")
    if rounds:
        for name in CLI_TIMES:
            print(f"  median {name} = {statistics.median([r[name] for r in rounds]):.6g} s")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": cli.attempted,
        "failed": cli.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
