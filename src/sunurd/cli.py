"""Command-line surface: print spectra, build designs, verify documents.

Exit codes are a stable contract: 0 success/pass, 1 verification failure,
2 usage or parse error, 3 inadmissible tuple, 4 ingredient unavailable,
5 I/O failure, a closed stdout included.

Each subcommand imports only the package modules it runs, inside its
``cmd_*`` function: ``spectrum`` loads ``spectrum``, ``verify`` loads
``core`` and ``serialization``, and ``build`` loads the rest.  A process
that does not build never loads, or compiles, the builder and the searches.

``main`` runs a call without the cyclic garbage collector and restores the
caller's setting; it never freezes, so library callers and in-process tests
are untouched.  A process enters through ``run`` (``python -m sunurd`` and
the ``sunurd`` script).  ``run`` switches the collector off before ``main``,
so no young collection runs on ``main``'s return, and calls ``gc.freeze``
after it: finalization forces full collections even with the collector off,
and freezing leaves them none of ``main``'s objects to examine.  What they
would free goes back to the OS at exit.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING, NoReturn

if TYPE_CHECKING:
    from .core import Decomposition

SEED_DIR_ENV = "SUNURD_SEED_DIR"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INADMISSIBLE = 3
EXIT_INGREDIENT = 4
EXIT_IO = 5

# The largest --v of spectrum, whose memory grows as O(v): 130 MB RSS at 10**6.
SPECTRUM_MAX_V = 10**6


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sunurd",
        description=(
            "Construct and verify uniformly resolvable decompositions of K_v "
            "into perfect matchings and sun factors."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("spectrum", help="print the admissible (r, s) pairs for (v, h)")
    sp.add_argument("--v", type=int, required=True, help="order of the complete graph")
    sp.add_argument("--h", type=int, required=True, help="sun cycle length")
    sp.add_argument("--format", choices=("text", "json"), default="text")
    sp.set_defaults(func=cmd_spectrum)

    bp = sub.add_parser("build", help="construct and write a verified design")
    bp.add_argument("--v", type=int, required=True)
    bp.add_argument("--h", type=int, required=True)
    bp.add_argument("--r", type=int, required=True, help="number of matching classes")
    bp.add_argument("--s", type=int, required=True, help="number of sun classes")
    bp.add_argument("--out", help="output path (default: stdout)")
    bp.add_argument("--format", choices=("json", "text"), default="json")
    bp.add_argument(
        "--seed-dir",
        help=f"directory of seed factorizations (default: ${SEED_DIR_ENV})",
    )
    bp.set_defaults(func=cmd_build)

    vp = sub.add_parser("verify", help="verify a design document")
    vp.add_argument("path", help="JSON document to check")
    vp.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    # No cyclic GC: the only cycle a call drops is argparse's parser.  When
    # the caller had the collector on, re-enabling it lets a young collection
    # free the parser on return; under ``run`` it stays off, and the parser
    # is left for the process's exit.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _parser().parse_args(argv)
        return args.func(args)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        code = exc.code
        return code if isinstance(code, int) else EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout.  What is still buffered goes to devnull,
        # so the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO
    finally:
        (gc.enable if enabled else gc.disable)()


def run() -> NoReturn:
    """Process entry: ``main`` with the collector off, then ``gc.freeze``,
    then ``sys.exit`` with its code, so atexit handlers run and stdio is
    flushed as usual."""
    gc.disable()
    code = main()
    gc.freeze()
    sys.exit(code)


def cmd_spectrum(args) -> int:
    from .spectrum import admissible_pairs, inadmissibility_reason

    if not 0 < args.v <= SPECTRUM_MAX_V or args.h < 3:
        print(f"spectrum needs 0 < --v <= {SPECTRUM_MAX_V} and --h of at least 3", file=sys.stderr)
        return EXIT_USAGE
    pairs = admissible_pairs(args.v, args.h)
    if args.format == "json":
        import json

        payload = {"v": args.v, "h": args.h, "pairs": [[p.r, p.s] for p in pairs]}
        if not pairs:
            payload["reason"] = inadmissibility_reason(args.v, args.h)
        print(json.dumps(payload, indent=2))
    elif pairs:
        print(" ".join(f"({p.r},{p.s})" for p in pairs))
    else:
        print(f"no admissible pairs: {inadmissibility_reason(args.v, args.h)}")
    return EXIT_OK


def _render_text(dec: Decomposition) -> str:
    from .core import ONE_FACTOR

    lines = []
    for i, cls in enumerate(dec.classes):
        if cls.kind == ONE_FACTOR:
            blocks = " ".join(f"{{{u},{w}}}" for u, w in cls.edges)
        else:
            blocks = " ".join(str(s) for s in cls.suns)
        lines.append(f"class {i}: {blocks}")
    return "\n".join(lines) + "\n"


def cmd_build(args) -> int:
    from .builder import InadmissibleTuple, build
    from .core import MAX_ORDER
    from .factorizations import (
        IngredientSource, IngredientUnavailable, SeedCatalogError, load_seed_catalog
    )
    from .serialization import dumps_document
    from .spectrum import ParamTuple

    if args.v > MAX_ORDER:
        print(f"build --v must be at most {MAX_ORDER}, the verifier's cap", file=sys.stderr)
        return EXIT_USAGE
    t = ParamTuple(args.v, args.h, args.r, args.s)
    seed_dir = args.seed_dir or os.environ.get(SEED_DIR_ENV)
    try:
        # The catalog loads before build() screens the tuple, so an
        # unreadable or unparseable directory is reported first.
        catalog = load_seed_catalog(seed_dir) if seed_dir else None
        dec = build(t, source=IngredientSource(catalog=catalog))
    except OSError as exc:
        print(f"cannot read seed catalog: {exc}", file=sys.stderr)
        return EXIT_IO
    except SeedCatalogError as exc:
        print(f"bad seed catalog: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InadmissibleTuple as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_INADMISSIBLE
    except IngredientUnavailable as exc:
        print(f"ingredient-unavailable: {exc} after {exc.nodes} search nodes", file=sys.stderr)
        return EXIT_INGREDIENT
    text = _render_text(dec) if args.format == "text" else dumps_document(dec, h=args.h)
    if args.out:
        try:
            Path(args.out).write_text(text, encoding="utf-8")
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"(r,s)=({args.r},{args.s}) written to {args.out}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .core import CycleFactorization, validate_cycle_factorization, verify
    from .serialization import DocumentFormatError, loads_document

    try:
        data = Path(args.path).read_bytes()
    except OSError as exc:
        print(f"cannot read {args.path}: {exc}", file=sys.stderr)
        return EXIT_IO
    try:
        doc = loads_document(data)
    except DocumentFormatError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if isinstance(doc.payload, CycleFactorization):
        report = validate_cycle_factorization(doc.payload)
        summary = (
            f"cycle-factorization: {len(doc.payload.classes)} classes "
            f"of {doc.payload.h}-cycles"
        )
    else:
        report = verify(doc.payload, expected_h=doc.h)
        summary = f"(r,s)=({report.r},{report.s})"
    if report.passed:
        print(summary)
        return EXIT_OK
    for finding in report.violations:
        print(str(finding))
    return EXIT_VERIFY_FAILED
