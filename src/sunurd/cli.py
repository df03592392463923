"""Command-line surface: print spectra, build designs, verify documents.

Exit codes are a stable contract: 0 success/pass, 1 verification failure,
2 usage or parse error, 3 inadmissible tuple, 4 ingredient unavailable,
5 I/O failure, a closed stdout included.

One table, ``COMMANDS``, drives both the parsing of a command line and its
usage text: each subcommand's options (an int, one of a tuple of choices or
a string; required or with a default) and at most one positional argument.
The parser accepts ``--v 12`` and ``--v=12``, a unique prefix of a long
option (``--seed`` for ``--seed-dir``), a repeated option (the last one
wins), a negative number as a value and ``--`` before a positional.  ``-h``
or ``--help``, in place of the subcommand or after it, prints the help and
exits 0.  Any other command line prints the usage line and the error on
stderr and exits 2.

This module imports only ``os`` and ``sys``, which the interpreter has
loaded before it, and reads and writes files with ``open``.  Each
subcommand imports only the package modules it runs, inside its ``cmd_*``
function: ``spectrum`` loads ``spectrum``; ``verify`` loads ``core`` and
``serialization`` (the reader, with ``json``); ``build`` loads ``spectrum``,
``core``, ``base_designs``, ``factorizations``, ``builder`` and ``writer``,
and the reader, ``json`` and ``pathlib`` only with a seed catalog
(``--seed-dir`` or ``$SUNURD_SEED_DIR``).  ``FORMAT_VERSION`` lives in
``core``, so writing a document needs no reader.  A process that does not
build never loads, or compiles, the builder, the searches, the canonical
forms or the writer.

``main`` never touches the cyclic garbage collector, so library callers
and in-process tests keep their own setting, during a call and after it.
The collector policy of a process has one owner, ``sunurd.__main__.run``
(``python -m sunurd`` and the ``sunurd`` script): it switches the collector
off before it imports this module, so no collection runs while it loads or
while ``main`` runs, and calls ``gc.freeze`` after ``main``: finalization
forces full collections even with the collector off, and freezing leaves
them none of ``main``'s objects to examine.  What they would free goes
back to the OS at exit.
"""

from __future__ import annotations

import os
import sys

SEED_DIR_ENV = "SUNURD_SEED_DIR"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_INADMISSIBLE = 3
EXIT_INGREDIENT = 4
EXIT_IO = 5

# The largest --v of spectrum, whose memory grows as O(v): 130 MB RSS at 10**6.
SPECTRUM_MAX_V = 10**6

DESCRIPTION = (
    "Construct and verify uniformly resolvable decompositions of K_v into\n"
    "perfect matchings and sun factors."
)
REQUIRED = object()
HELP = ("-h", "--help")

# Per subcommand: its help line and its arguments by name, as (type,
# default, help).  A name starting with "--" is an option; another name is
# the positional argument.  The type is int, str or a tuple of the choices,
# and a default of REQUIRED makes the argument required.  The value of
# --seed-dir is the attribute seed_dir.
COMMANDS = {
    "spectrum": ("print the admissible (r, s) pairs for (v, h)", {
        "--v": (int, REQUIRED, "order of the complete graph"),
        "--h": (int, REQUIRED, "sun cycle length"),
        "--format": (("text", "json"), "text", "output format (default: text)"),
    }),
    "build": ("construct and write a verified design", {
        "--v": (int, REQUIRED, "order of the complete graph"),
        "--h": (int, REQUIRED, "sun cycle length"),
        "--r": (int, REQUIRED, "number of matching classes"),
        "--s": (int, REQUIRED, "number of sun classes"),
        "--out": (str, None, "output path (default: stdout)"),
        "--format": (("json", "text"), "json", "output format (default: json)"),
        "--seed-dir": (str, None, f"directory of seed factorizations (default: ${SEED_DIR_ENV})"),
    }),
    "verify": ("verify a design document", {"path": (str, REQUIRED, "JSON document to check")}),
}


class UsageError(Exception):
    """A command line the table does not accept: (subcommand or None, message)."""


class Args:
    """The values of one command line, one attribute per argument."""

    def __init__(self, values: dict):
        self.__dict__.update(values)


def main(argv=None) -> int:
    try:
        command, args = _parse(sys.argv[1:] if argv is None else argv)
        if args is None:
            sys.stdout.write(_help(command))
            return EXIT_OK
        return globals()[f"cmd_{command}"](args)
    except UsageError as exc:
        command, message = exc.args
        prog = " ".join(filter(None, ["sunurd", command]))
        print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:
        # The reader closed stdout.  What is still buffered goes to devnull,
        # so the interpreter's final flush cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_IO


def _parse(argv) -> tuple[str | None, Args | None]:
    """The subcommand ``argv`` runs and its values, or (the subcommand or
    None, None) when ``argv`` asks for help.  Raises UsageError.

    The first token is the subcommand, or -h or --help.  The rest are read
    left to right, and after ``--`` every token is positional.  An option's
    value follows its ``=`` or is the next token, which must be neither
    ``--`` nor an option.  Help wins over any error found after it."""
    if not argv:
        raise UsageError(None, "the following arguments are required: command")
    command = argv[0]
    if command not in COMMANDS:
        if _option(None, command, {}) in [(flag, None) for flag in HELP]:
            return None, None
        choices = ", ".join(map(repr, COMMANDS))
        raise UsageError(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    arguments = COMMANDS[command][1]
    positional = next((name for name in arguments if name[0] != "-"), None)
    values = {_name(f): d for f, (_, d, _) in arguments.items() if d is not REQUIRED}
    tokens, dashed = iter(argv[1:]), False
    for token in tokens:
        if token == "--" and not dashed:
            dashed = True
            continue
        option = None if dashed else _option(command, token, arguments)
        if option is None and (positional is None or positional in values):
            raise UsageError(command, f"unrecognized arguments: {token}")
        flag, value = option or (positional, token)
        if flag in HELP:
            if value is not None:
                raise UsageError(command, f"argument {flag}: ignored explicit argument {value!r}")
            return command, None
        if value is None:
            value = next(tokens, "--")  # a missing value is an error like "--"
            if value == "--" or _option(command, value, arguments) is not None:
                raise UsageError(command, f"argument {flag}: expected one argument")
        values[_name(flag)] = _value(command, flag, arguments[flag][0], value)
    missing = [f for f, (_, d, _) in arguments.items() if d is REQUIRED and _name(f) not in values]
    if missing:
        raise UsageError(command, f"the following arguments are required: {', '.join(missing)}")
    return command, Args(values)


def _option(command: str | None, token: str, arguments: dict) -> tuple[str, str | None] | None:
    """(flag, the value after its ``=`` or None) when ``token`` names an
    option, exactly or by a unique prefix of a long option; None when it is
    positional: it does not start with ``-``, or it is ``-``, a negative
    number or holds a space.  Raises UsageError for an unknown option."""
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=")
    flags = [*arguments, *HELP]
    long = name[:2] == "--"
    hits = [f for f in flags if f == name] or [f for f in flags if long and f.startswith(name)]
    if len(hits) == 1:
        return hits[0], value if eq else None
    whole, dot, fraction = token[1:].partition(".")
    number = (whole.isdecimal() or dot and not whole) and (fraction.isdecimal() or not dot)
    if number or " " in token:
        return None
    raise UsageError(command, f"unrecognized arguments: {token}")


def _name(argument: str) -> str:
    return argument.lstrip("-").replace("-", "_")


def _value(command: str, flag: str, kind, text: str):
    """``text`` as the value of ``flag``: an int, one of the choices in the
    tuple ``kind`` or the string itself.  Raises UsageError."""
    if kind is int:
        try:
            return int(text)
        except ValueError:
            raise UsageError(command, f"argument {flag}: invalid int value: {text!r}") from None
    if kind is not str and text not in kind:
        choices = ", ".join(map(repr, kind))
        raise UsageError(command, f"argument {flag}: invalid choice: {text!r} (choose from {choices})")
    return text


def _usage(command: str | None) -> str:
    if command is None:
        return f"usage: sunurd [-h] {{{','.join(COMMANDS)}}} ..."
    words = [f"usage: sunurd {command} [-h]"]
    for name, (kind, default, _) in COMMANDS[command][1].items():
        word = _shown(name, kind)
        words.append(word if default is REQUIRED else f"[{word}]")
    return " ".join(words)


def _shown(name: str, kind) -> str:
    """An argument as the usage shows it: ``--v V``, ``--format {text,json}``, ``path``."""
    if name[0] != "-":
        return name
    return f"{name} {{{','.join(kind)}}}" if type(kind) is tuple else f"{name} {_name(name).upper()}"


def _help(command: str | None) -> str:
    if command is None:
        about, rows = DESCRIPTION, [(name, spec[0]) for name, spec in COMMANDS.items()]
    else:
        about, arguments = COMMANDS[command]
        rows = [(_shown(name, kind), text) for name, (kind, _, text) in arguments.items()]
    rows.append((", ".join(HELP), "show this help message and exit"))
    table = "\n".join(f"  {left:22}{text}" for left, text in rows)
    return f"{_usage(command)}\n\n{about}\n\n{table}\n"


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


def _render_text(dec) -> str:
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
    from .spectrum import ParamTuple
    from .writer import _chunks

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
    # The first chunk comes after every check of the writer, so --out is
    # opened only for a document that will be written whole.
    chunks = iter([_render_text(dec)]) if args.format == "text" else _chunks(dec, h=args.h)
    first = next(chunks)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as out:
                out.write(first)
                out.writelines(chunks)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_IO
        print(f"(r,s)=({args.r},{args.s}) written to {args.out}")
    else:
        sys.stdout.write(first)
        sys.stdout.writelines(chunks)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .core import CycleFactorization, validate_cycle_factorization, verify
    from .serialization import DocumentFormatError, loads_document

    try:
        with open(args.path, "rb") as document:
            data = document.read()
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
