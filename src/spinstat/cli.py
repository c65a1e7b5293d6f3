"""Command-line interface.

Three subcommands: ``analyze`` runs the full verdict pipeline on a theory
file, ``dkp-check`` exercises the wave-operator beta algebra, and ``fock``
evaluates vacuum expectations and Gram matrices over a relation table.
Every subcommand takes ``--json PATH`` to also write a machine-readable
report; output is deterministic, so identical inputs give identical bytes.
"""

from __future__ import annotations

import os
import sys
from types import SimpleNamespace

from . import __version__
from .algebra import ONE, ExactMatrix, ParseError, Scalar, SelfCheckError, _numbered_lines
from .fock import (
    MAX_STATES_BYTES,
    MAX_TABLE_BYTES,
    gram_matrix,
    parse_relation_table,
    vacuum_expectation,
)
from .invariance import constraint_split
from .model import MAX_THEORY_BYTES, parse_theory
from .reduction import (
    SHORTHAND_FAMILIES,
    duffin_kemmer_construct,
    dkp_minimal_polynomial_check,
    verify_dkp_algebra,
)
from .report import (
    STATUSES,
    analyze_theory,
    json_text,
    render_text,
    report_to_json,
)

# A derived result failed its independent check: a defect in spinstat,
# not in the input.
_EXIT_SELF_CHECK = 4

# Probe momenta for the minimal-polynomial check: timelike, spacelike,
# lightlike, and generic rational vectors.
_MOMENTA: tuple[tuple, ...] = (
    (1, 0, 0, 0),
    (0, 1, 0, 0),
    (2, 1, 1, 1),
    (1, 1, 0, 0),
    (Scalar("1/2"), Scalar("1/3"), 0, 1),
    (3, -2, 1, -1),
    (Scalar("-5/2"), 1, Scalar("3/4"), -2),
    (1, 1, 1, 1),
)


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 1


def _read_text(path: str, limit: int, kind: str) -> str:
    """The UTF-8 text of the file at path, reading at most limit + 1
    bytes, so a longer file is refused without reading the rest.  A pipe
    such as /dev/stdin, which os.stat cannot size, is bounded the same way."""
    with open(path, "rb") as fh:
        data = fh.read(limit + 1)
    if len(data) > limit:
        raise ValueError(f"{kind} {path!r} is over the maximum {limit} bytes")
    return data.decode("utf-8")


def _write_json(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _theory_dir(path: str) -> str:
    """The directory an explicit matrix path of the theory at path is
    taken from.  A path that names a descriptor (/dev/stdin, /dev/fd/N,
    /proc/self/fd/N) is resolved first, so a redirected file gives its
    own directory; a pipe has none, and gives the working directory.  A
    symlinked theory file keeps its link's directory."""
    path = os.path.abspath(path)
    if path == "/dev/stdin" or os.path.dirname(path) in ("/dev/fd", "/proc/self/fd"):
        path = os.path.realpath(path)
    return os.path.dirname(path) if os.path.isfile(path) else os.getcwd()


def cmd_analyze(args) -> int:
    base_dir = _theory_dir(args.spec)
    try:
        spec = parse_theory(_read_text(args.spec, MAX_THEORY_BYTES, "theory file"),
                            base_dir=base_dir)
        report = analyze_theory(spec)
    except ValueError as exc:
        return _fail(str(exc))
    sys.stdout.write(render_text(report))
    if args.json:
        _write_json(args.json, report_to_json(report))
    return STATUSES[report.status]


def _parse_metric(text: str) -> ExactMatrix:
    if len(text) != 4 or set(text) - {"+", "-"}:
        raise ValueError(
            f"metric must be four signs like +---, got {text!r}")
    return ExactMatrix.diagonal([1 if c == "+" else -1 for c in text])


def cmd_dkp_check(args) -> int:
    betas = duffin_kemmer_construct(1)
    if args.metric is not None:
        try:
            metric = _parse_metric(args.metric)
        except ValueError as exc:
            return _fail(str(exc))
        betas = betas._replace(metric=metric)

    algebra = verify_dkp_algebra(betas)
    momenta = [dkp_minimal_polynomial_check(betas, k) for k in _MOMENTA]
    split = constraint_split(betas.beta0, "bose")
    labels = betas.psi_components
    canonical = [labels[i] for i in split.canonical_indices]
    constraints = [labels[i] for i in split.constraint_indices]
    signature = "".join("+" if betas.metric[i, i] == ONE else "-" for i in range(4))

    lines = [f"duffin-kemmer check (5x5 betas, metric {signature})"]
    if algebra.standard_holds:
        lines.append("standard trilinear relation: PASS (64 of 64 triples)")
    else:
        n = len(algebra.standard_failures)
        lines.append(f"standard trilinear relation: FAIL ({n} of 64 triples)")

    shorthand = None
    if args.paper_relations:
        mismatches = algebra.unweighted_mismatches
        lines.append("shorthand relations, metric factors dropped vs restored:")
        shorthand, slip_lines = {}, []
        for (name, form, *_), checks in zip(SHORTHAND_FAMILIES, algebra[1:]):
            total = len(checks)
            raw = sum(c.unweighted for c in checks)
            weighted = sum(c.weighted for c in checks)
            lines.append(f"  {name} ({form}): {raw}/{total} unweighted, "
                         f"{weighted}/{total} weighted")
            shorthand[name] = [c._asdict() for c in checks]
            slips = [indices for family, indices in mismatches if family == name]
            if slips:
                slip_lines.append(f"    {name}: " + " ".join(
                    "(" + ",".join(map(str, indices)) + ")" for indices in slips))
        lines.append(f"  unweighted mismatches: {len(mismatches)}")
        lines += slip_lines
        shorthand["mismatches"] = [{"relation": name, "indices": indices}
                                   for name, indices in mismatches]

    probes, fail_lines = [], []
    for c in momenta:
        k = [str(v) for v in c.k]
        probes.append({"k": k, "k_dot_k": str(c.k_dot_k), "holds": c.holds})
        if not c.holds:
            fail_lines.append(f"  fails at k = ({', '.join(k)}), k.k = {c.k_dot_k}")
    count = len(momenta)
    lines.append("minimal polynomial (beta.k)^3 = (k.k)(beta.k): " + (
        f"FAIL ({len(fail_lines)} of {count} momenta fail)" if fail_lines
        else f"PASS ({count} of {count} momenta)"))
    lines += fail_lines

    lines.append(
        f"constraint split of beta0 (bose): canonical {', '.join(canonical)}; "
        f"constraints {', '.join(constraints)}")
    print("\n".join(lines))

    if args.json:
        _write_json(args.json, json_text({
            "metric": {
                "signature": signature,
                "diagonal": [str(betas.metric[i, i]) for i in range(4)],
            },
            "standard": {
                "holds": algebra.standard_holds,
                "failures": algebra.standard_failures,
            },
            "shorthand": shorthand,
            "minimal_polynomial": probes,
            "constraint_split": {
                "canonical": canonical,
                "constraints": constraints,
                "nonsingular_block":
                    split.nonsingular_block.to_nested_strings()
                    if split.nonsingular_block is not None else None,
            },
        }))

    return 0 if algebra.standard_holds else 2


def _read_states(path: str) -> tuple[list[int], list[tuple[str, ...]]]:
    """The line number and the symbols of each state in the file at path."""
    lines, states = [], []
    for line_no, line in _numbered_lines(_read_text(path, MAX_STATES_BYTES, "states file")):
        lines.append(line_no)
        states.append(tuple(line.split()))
    if not states:
        raise ValueError(f"no states found in {path}")
    return lines, states


def cmd_fock(args) -> int:
    if args.word is None and args.gram is None:
        return _fail("fock needs --word and/or --gram")
    try:
        table = parse_relation_table(
            _read_text(args.table, MAX_TABLE_BYTES, "relation table"))
    except ValueError as exc:
        return _fail(str(exc))

    payload: dict = {
        "bracket": table.bracket,
        "symbols": sorted(table.symbols),
        "word": None,
        "gram": None,
    }
    try:
        if args.word is not None:
            symbols = tuple(args.word.split())
            value = vacuum_expectation(symbols, table)
            print(f"<0| {' '.join(symbols)} |0> = {value}")
            payload["word"] = {
                "symbols": list(symbols),
                "vacuum_expectation": str(value),
            }
        if args.gram is not None:
            lines, states = _read_states(args.gram)
            try:
                result = gram_matrix(states, table)
            except ValueError as exc:
                if not hasattr(exc, "state"):
                    raise
                raise ParseError(lines[exc.state], str(exc)) from None
            matrix = result.matrix.to_nested_strings()
            print(f"gram matrix ({len(states)} states):")
            for row in matrix:
                print("  " + "  ".join(row))
            p, n, z = result.signature
            print(f"signature: ({p}, {n}, {z})")
            payload["gram"] = {
                "states": [list(s) for s in states],
                "matrix": matrix,
                "signature": [p, n, z],
            }
    except ValueError as exc:
        return _fail(str(exc))

    if args.json:
        _write_json(args.json, json_text(payload))
    return 0


# command -> (function, summary, positional or None, {option: (metavar,
# help)}); an option whose metavar is None is a flag and takes no value
_COMMANDS = {
    "analyze": (
        cmd_analyze,
        "derive the statistics verdict for a theory file",
        ("spec", "theory description file"),
        {"--json": ("PATH", "also write the report as JSON")},
    ),
    "dkp-check": (
        cmd_dkp_check,
        "verify the wave-operator beta algebra",
        None,
        {"--paper-relations": (
            None, "also tabulate the metric-free shorthand relations"),
         "--metric": ("SIGNS", "override the metric signature, e.g. +--- or -+++"),
         "--json": ("PATH", "also write the results as JSON")},
    ),
    "fock": (
        cmd_fock,
        "evaluate vacuum expectations over a relation table",
        ("table", "relation table file"),
        {"--word": ("SYMBOLS", "operator word, e.g. 'c ddag'"),
         "--gram": ("PATH", "file of creator words, one state per line"),
         "--json": ("PATH", "also write the results as JSON")},
    ),
}

_USAGE = "spinstat [-h] [--version] command ..."


def _command_usage(command: str) -> str:
    _, _, positional, options = _COMMANDS[command]
    parts = ["spinstat", command, "[-h]"]
    parts += [f"[{opt} {metavar}]" if metavar else f"[{opt}]"
              for opt, (metavar, _) in options.items()]
    if positional:
        parts.append(positional[0])
    return " ".join(parts)


def _help() -> str:
    lines = [f"usage: {_USAGE}", "",
             "Exact spin-statistics analysis of first-order field Lagrangians.",
             "", "commands:"]
    for command, (_, summary, positional, options) in _COMMANDS.items():
        lines += [f"  {_command_usage(command)}", f"      {summary}"]
        rows = [positional] if positional else []
        rows += [(f"{opt} {metavar}" if metavar else opt, text)
                 for opt, (metavar, text) in options.items()]
        lines += [f"      {name:<22}{text}" for name, text in rows]
    lines += ["", "options:",
              "  -h, --help  show this help message and exit",
              "  --version   show program's version number and exit"]
    return "\n".join(lines) + "\n"


def _exit_with_help():
    sys.stdout.write(_help())
    raise SystemExit(0)


def _usage_error(usage: str, message: str):
    sys.stderr.write(f"usage: {usage}\nspinstat: error: {message}\n")
    raise SystemExit(1)


def parse_argv(argv):
    """Read a command line into the command's function and its arguments.

    Options come in any order, before or after the positional, as
    ``--opt VALUE`` or ``--opt=VALUE``; a valued option takes the next
    token even when it starts with ``-``, and a repeated option keeps its
    last value.  ``-h``/``--help`` prints the help and a leading
    ``--version`` the version, both exiting 0; a usage error writes the
    usage line and the error to stderr and exits 1.  Long options are
    never abbreviated.
    """
    tokens = iter(argv)
    command = next(tokens, None)
    if command in ("-h", "--help"):
        _exit_with_help()
    if command == "--version":
        sys.stdout.write(f"spinstat {__version__}\n")
        raise SystemExit(0)
    if command is None:
        _usage_error(_USAGE, "the following arguments are required: command")
    if command.startswith("-"):
        _usage_error(_USAGE, f"unrecognized arguments: {command}")
    if command not in _COMMANDS:
        choices = ", ".join(repr(c) for c in _COMMANDS)
        _usage_error(_USAGE, f"argument command: invalid choice: "
                             f"{command!r} (choose from {choices})")

    run, _, positional, options = _COMMANDS[command]
    usage = _command_usage(command)
    values = {opt: None if metavar else False
              for opt, (metavar, _) in options.items()}
    given = []
    for tok in tokens:
        if tok in ("-h", "--help"):
            _exit_with_help()
        if not tok.startswith("-") or tok == "-":
            given.append(tok)
            continue
        opt, eq, value = tok.partition("=")
        if opt not in options:
            _usage_error(usage, f"unrecognized arguments: {tok}")
        if options[opt][0] is None:
            if eq:
                _usage_error(usage, f"argument {opt}: ignored explicit "
                                    f"argument {value!r}")
            value = True
        elif not eq:
            value = next(tokens, None)
            if value is None:
                _usage_error(usage, f"argument {opt}: expected one argument")
        values[opt] = value

    args = {opt[2:].replace("-", "_"): value for opt, value in values.items()}
    if positional:
        if not given:
            _usage_error(usage, f"the following arguments are required: "
                                f"{positional[0]}")
        args[positional[0]] = given.pop(0)
    if given:
        _usage_error(usage, f"unrecognized arguments: {' '.join(given)}")
    return run, SimpleNamespace(**args)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    run, args = parse_argv(argv)
    try:
        code = run(args)
        sys.stdout.flush()
        return code
    except SelfCheckError as exc:
        print(f"error: internal self-check failed: {exc}", file=sys.stderr)
        return _EXIT_SELF_CHECK
    except BrokenPipeError:
        # stdout's reader is gone; the flush at exit goes to devnull instead
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except OSError as exc:
        # an input file that cannot be read or a --json path that cannot
        # be written, in any subcommand
        return _fail(str(exc))
