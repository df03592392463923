"""In-process mirror of the CLI calls, with one span per layer boundary.

The mirror calls only public functions of the sunurd modules, in the order
the CLI reaches them, so the spans split each CLI call into its layers
without any timing code inside the library.  Spans stay in memory; the
caller writes them out when the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    """Records spans (name, start, end, parent) in memory.

    With ``enabled`` false, ``span`` records nothing; ``span_overhead``
    times both to price one span.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.round = 0

    @contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield attrs
            return
        sid = len(self.spans)
        rec = {
            "id": sid,
            "parent": self._stack[-1] if self._stack else None,
            "round": self.round,
            "name": name,
            "start": 0.0,
            "end": 0.0,
            "attrs": attrs,
        }
        self.spans.append(rec)
        self._stack.append(sid)
        rec["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def span_overhead(reps: int = 20000) -> float:
    """Seconds a recorded span costs over the same span with tracing off."""

    def loop(tracer: Tracer) -> float:
        start = time.perf_counter()
        for _ in range(reps):
            with tracer.span("overhead"):
                pass
        return time.perf_counter() - start

    return (loop(Tracer()) - loop(Tracer(enabled=False))) / reps


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another, so their durations add up
    without overlap.
    """
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def run_pass(sd, tracer: Tracer, jobs, workdir: Path) -> list[str]:
    """One in-process pass over a round's CLI calls; returns problems found.

    ``sd`` is the imported sunurd package.  ``jobs`` holds, per tuple, the
    ParamTuple fields, the seed directory (or None) and the corrupted
    document the CLI pass verified.
    """
    from sunurd import factorizations as fz

    problems = []
    for i, job in enumerate(jobs):
        t = sd.ParamTuple(*job.tuple)
        out = workdir / f"inproc-{i}.json"
        with tracer.span("cli.build", call=i):
            with tracer.span("spectrum.check"):
                sd.check_necessary(t)
            with tracer.span("builder.plan"):
                p = sd.plan(t)
            catalog = None
            if job.seed_dir is not None:
                with tracer.span("factorizations.catalog_load"):
                    catalog = sd.load_seed_catalog(job.seed_dir)
            source = sd.IngredientSource(catalog=catalog)
            n, h, kind = p.ingredient
            with tracer.span("factorizations.ingredient"):
                cf = source.minus_f(n, h) if kind == "complete_minus_f" else source.odd(n, h)
            with tracer.span("builder.assemble"):
                dec, _ = sd.build_with_plan(t, source=source, certify=False)
            with tracer.span("core.verify", edges=t.v * (t.v - 1) // 2):
                report = sd.verify(dec, expected_h=t.h)
            if not report.passed or (report.r, report.s) != (t.r, t.s):
                problems.append(f"in-process build of {job.tuple} failed certification")
            with tracer.span("serialization.dumps"):
                text = sd.dumps_document(dec, h=t.h)
            out.write_text(text, encoding="utf-8")
            del dec
        job.doc_bytes = len(text.encode("utf-8"))

        # Layers the CLI reaches only inside the ingredient call, measured on
        # their own: the validator, and the exact search with its node count.
        with tracer.span("ingredient.detail", call=i):
            with tracer.span("factorizations.validate"):
                if not sd.validate_cycle_factorization(cf).passed:
                    problems.append(f"ingredient for {job.tuple} failed validation")
            if cf.source == "search":
                if kind == "complete_minus_f":
                    host = sd.HostGraph.complete_minus_f(n, fz.canonical_perfect_matching(n))
                else:
                    host = sd.HostGraph.complete(n)
                with tracer.span("factorizations.search") as attrs:
                    result = sd.search_cycle_factorization(host, h, fz.DEFAULT_SEARCH_BUDGET)
                if result.status != fz.FOUND:
                    problems.append(f"search for {job.tuple} ended {result.status}")
                else:
                    attrs["nodes"] = result.nodes
                    attrs["kept"] = sum(len(c) for c in result.factorization.classes)

    for i, job in enumerate(jobs):
        with tracer.span("cli.verify", call=i):
            text = (workdir / f"inproc-{i}.json").read_text(encoding="utf-8")
            with tracer.span("serialization.loads"):
                doc = sd.loads_document(text)
            with tracer.span("core.verify", edges=job.tuple[0] * (job.tuple[0] - 1) // 2):
                report = sd.verify(doc.payload, expected_h=doc.h)
            if not report.passed:
                problems.append(f"in-process verify of {job.tuple} failed")
            del doc

    for i, job in enumerate(jobs):
        with tracer.span("cli.verify_fail", call=i):
            text = job.corrupt_path.read_text(encoding="utf-8")
            with tracer.span("serialization.loads"):
                doc = sd.loads_document(text)
            with tracer.span("core.verify_fail") as attrs:
                report = sd.verify(doc.payload, expected_h=doc.h)
            attrs["findings"] = len(report.violations)
            if report.passed or not report.violations:
                problems.append(f"corrupted {job.tuple} passed in-process verify")
            del doc
    return problems
