"""The three workloads: inputs generated from a seed, one pass of operations,
and a check of every output against an answer from `oracle`.

An operation is an ``Op``: ``run(ctx)`` is the timed call into spinstat and
``check(ctx, output)`` returns a problem description or None.  The seed
changes names, numeric values and the order of operations, never the size
of the work, so runs with different seeds measure the same mix.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import subprocess
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import oracle

HERE = pathlib.Path(__file__).resolve().parent
THEORIES = HERE.parent / "src" / "spinstat" / "theories"


@dataclass
class Op:
    label: str
    run: Callable
    check: Callable


@dataclass
class Context:
    """What operations share: the freshly imported package modules, the
    input directory, the environment of CLI children, and the tracer of a
    traced run (None otherwise)."""

    lib: object
    workdir: pathlib.Path
    env: dict
    tracer: object = None
    first_output: dict = field(default_factory=dict)

    def same_as_first(self, label: str, data) -> str | None:
        """Same input, byte-identical report within a run."""
        first = self.first_output.setdefault(label, data)
        return None if first == data else "report differs from the first pass"


def _tag(rng) -> str:
    return str(rng.randrange(10 ** 6))


def _last_line(text: str) -> str:
    lines = text.strip().splitlines()
    return lines[-1] if lines else ""


# -- corpus-cli --------------------------------------------------------------


def _cli(ctx: Context, args: list[str]):
    if ctx.tracer is None:
        cmd = [sys.executable, "-m", "spinstat", *args]
    else:
        spans_path = ctx.workdir / "child-spans.json"
        cmd = [sys.executable, str(HERE / "child.py"), str(spans_path), *args]
    proc = subprocess.run(cmd, capture_output=True, text=True, env=ctx.env,
                          cwd=ctx.workdir, timeout=120)
    if ctx.tracer is not None:
        ctx.tracer.merge(json.loads(spans_path.read_text()))
    return proc


def _rename_theory(text: str, rng) -> tuple[str, list[str]]:
    """Give the theory and its fields seeded names; return the spins."""
    out, spins = [], []
    for line in text.splitlines():
        tokens = line.split()
        if tokens[:1] == ["theory"]:
            line = f"theory {tokens[1]}_{_tag(rng)}"
        elif tokens[:1] == ["field"]:
            tokens[1] = f"{tokens[1]}_{_tag(rng)}"
            spins.extend(t[5:] for t in tokens if t.startswith("spin="))
            line = " ".join(tokens)
        out.append(line)
    return "\n".join(out) + "\n", spins


def _analyze_op(path, status, code, field_stats) -> Op:
    out = path.with_suffix(".json")

    def run(ctx):
        out.unlink(missing_ok=True)
        return _cli(ctx, ["analyze", str(path), "--json", str(out)])

    def check(ctx, proc):
        if proc.returncode != code:
            return f"exit {proc.returncode}, expected {code}: {proc.stderr}"
        if _last_line(proc.stdout) != f"status: {status}":
            return f"text ends {_last_line(proc.stdout)!r}"
        raw = out.read_bytes()
        report = json.loads(raw)
        if report["status"] != status:
            return f"json status {report['status']}"
        stats = [f["consistent_statistics"] for f in report["fields"]]
        if stats != field_stats:
            return f"field statistics {stats}, expected {field_stats}"
        return ctx.same_as_first(path.name, raw)

    return Op(f"analyze {path.stem}", run, check)


def _dkp_op(index, workdir) -> Op:
    out = workdir / f"dkp{index}.json"

    def run(ctx):
        out.unlink(missing_ok=True)
        return _cli(ctx, ["dkp-check", "--paper-relations", "--json", str(out)])

    def check(ctx, proc):
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr}"
        raw = out.read_bytes()
        d = json.loads(raw)
        momenta = d["minimal_polynomial"]
        split = d["constraint_split"]
        found = (d["standard"]["holds"], len(d["shorthand"]["mismatches"]),
                 len(momenta), all(m["holds"] for m in momenta),
                 len(split["canonical"]), len(split["constraints"]))
        expected = (True, oracle.DKP_MISMATCHES, oracle.DKP_MOMENTA, True,
                    oracle.DKP_CANONICAL, oracle.DKP_CONSTRAINTS)
        if found != expected:
            return f"dkp-check gave {found}, expected {expected}"
        return ctx.same_as_first("dkp", raw)

    return Op(f"dkp-check{index}", run, check)


def _fock_op(index, workdir, rng) -> Op:
    values = [v for v in range(-3, 4) if v]
    p, q, r = (Fraction(rng.choice(values)) for _ in range(3))
    pairing = {("c", "cdag"): p, ("d", "ddag"): q,
               ("c", "ddag"): r, ("d", "cdag"): r}
    table = workdir / f"pair{index}.rel"
    table.write_text("bracket = anticommutator\n" + "".join(
        f"pair {a} {c} = {v}\n" for (a, c), v in pairing.items()))
    states = [("cdag",), ("ddag",), ("cdag", "ddag"), ("ddag", "cdag"),
              rng.choice([("cdag", "cdag"), ("ddag", "ddag")])]
    rng.shuffle(states)
    states_path = workdir / f"states{index}.txt"
    states_path.write_text("".join(" ".join(s) + "\n" for s in states))
    gram = [[oracle.wick_entry(pairing, m, n, fermi=True) for n in states]
            for m in states]
    expected = {
        "word": str(r),
        "matrix": [[str(x) for x in row] for row in gram],
        "signature": list(oracle.inertia(gram)),
    }
    out = workdir / f"fock{index}.json"

    def run(ctx):
        out.unlink(missing_ok=True)
        return _cli(ctx, ["fock", str(table), "--word", "c ddag",
                          "--gram", str(states_path), "--json", str(out)])

    def check(ctx, proc):
        if proc.returncode != 0:
            return f"exit {proc.returncode}: {proc.stderr}"
        d = json.loads(out.read_bytes())
        found = {"word": d["word"]["vacuum_expectation"],
                 "matrix": d["gram"]["matrix"],
                 "signature": d["gram"]["signature"]}
        return None if found == expected else f"fock gave {found}, expected {expected}"

    return Op(f"fock{index}", run, check)


def _error_op(label, path) -> Op:
    def run(ctx):
        return _cli(ctx, ["analyze", str(path)])

    def check(ctx, proc):
        if proc.returncode != 1 or not proc.stderr.startswith("error: "):
            return f"exit {proc.returncode}, stderr {proc.stderr!r}"
        return None

    return Op(label, run, check)


MALFORMED = (
    "field {n} spin=5/3\n",
    "field {n} spin=1 colour=red\n",
    "field {n} spin=1 copies=2\nfield {n} spin=0 copies=2\n",
    "fields {n} spin=1\n",
)


def corpus_cli(lib, rng, workdir: pathlib.Path) -> list[Op]:
    """`python -m spinstat` as a fresh process per command, as a user runs it."""
    ops = []
    stems = sorted(p.stem for p in THEORIES.glob("*.th"))
    if stems != sorted(oracle.CORPUS):
        raise RuntimeError(f"shipped theories {stems} differ from the answer key")
    for stem in stems:
        text, spins = _rename_theory((THEORIES / f"{stem}.th").read_text(), rng)
        path = workdir / f"{stem}.th"
        path.write_text(text)
        status, code = oracle.CORPUS[stem]
        stats = [None if status == "NO_KINEMATIC_TERM"
                 else oracle.statistics_for_spin(s) for s in spins]
        ops.append(_analyze_op(path, status, code, stats))
    # Three of each, for 15 commands a pass: the median then falls inside
    # the analyze calls and the 90th percentile inside the dkp-check calls,
    # not on the edge between two commands.
    for index in range(3):
        ops.append(_dkp_op(index, workdir))
        ops.append(_fock_op(index, workdir, rng))

    bad = workdir / "malformed.th"
    bad.write_text(f"theory t{_tag(rng)}\n"
                   + rng.choice(MALFORMED).format(n=f"x{_tag(rng)}"))
    ops.append(_error_op("malformed", bad))
    ambiguous = workdir / "ambiguous.th"
    ambiguous.write_text(f"theory t{_tag(rng)}\nfield x{_tag(rng)} spin=1/2 copies=2\n")
    ops.append(_error_op("ambiguous", ambiguous))
    rng.shuffle(ops)
    return ops


# -- scaling-sweep -----------------------------------------------------------

# (fields as (spin, flavors, copies, pinned statistics), mode, status).  The
# statuses follow from the spin -> symmetry-class rule: every auto form of
# the right class exists and is unique here, an antisymmetric flavor pair is
# rejected on norms, and pinning Bose on spin 3/2 contradicts it.
SWEEP = (
    ((("7/2", 1, 1, None),), "auto", "CONSISTENT"),
    ((("7/2", 2, 1, None),), "auto", "CONSISTENT"),
    ((("7/2", 4, 1, None),), "auto", "CONSISTENT"),
    ((("4", 1, 2, None),), "auto", "CONSISTENT"),
    ((("4", 2, 2, None),), "auto", "CONSISTENT"),
    ((("1", 2, 1, None),), "antisymmetric-pair", "REJECTED_NEGATIVE_NORM"),
    # three differently named spin-2 pairs: with 15 theories a pass, the
    # median falls in the middle of their samples and the 90th percentile
    # on spin 4 with copies 2 and flavors 2, not between two theories
    ((("2", 2, 1, None),), "antisymmetric-pair", "REJECTED_NEGATIVE_NORM"),
    ((("2", 2, 1, None),), "antisymmetric-pair", "REJECTED_NEGATIVE_NORM"),
    ((("2", 2, 1, None),), "antisymmetric-pair", "REJECTED_NEGATIVE_NORM"),
    ((("4", 2, 1, None),), "antisymmetric-pair", "REJECTED_NEGATIVE_NORM"),
    ((("0", 1, 2, None), ("1/2", 1, 1, None)), "auto", "CONSISTENT"),
    ((("1", 2, 2, None), ("3/2", 2, 1, None)), "auto", "CONSISTENT"),
    ((("3/2", 1, 1, "bose"),), "auto", "CONTRADICTION"),
    # spin 0 has vanishing rotation generators, so any block-diagonal
    # antisymmetric K0 is invariant; full-rank blocks make all indices canonical
    ((("0", 3, 8, None),), "explicit", "CONSISTENT"),
    # the smallest theory
    ((("1/2", 1, 1, None),), "auto", "CONSISTENT"),
)
EXPLICIT_BLOCK = 8


def _components(spin: str) -> int:
    two_j = int(Fraction(spin) * 2)
    return 2 * (two_j + 1) if two_j % 2 else two_j + 1


def _explicit_matrix(rng, blocks: int) -> list[list[int]]:
    """Block-diagonal, each block a full-rank antisymmetric matrix whose
    entries have fixed magnitudes 1 and 2 and seeded signs."""
    n = EXPLICIT_BLOCK
    full = [[0] * (n * blocks) for _ in range(n * blocks)]
    for b in range(blocks):
        while True:
            block = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i + 1, n):
                    block[i][j] = rng.choice((-1, 1)) * (1 + (i + j) % 2)
                    block[j][i] = -block[i][j]
            if oracle.rank(block) == n:
                break
        for i in range(n):
            full[b * n + i][b * n:(b + 1) * n] = block[i]
    return full


def _sweep_op(index, fields, mode, status, workdir, rng) -> Op:
    names = [f"f{_tag(rng)}_{k}" for k in range(len(fields))]
    lines = [f"theory sweep{index}_{_tag(rng)}"]
    dim = 0
    for name, (spin, flavors, copies, pinned) in zip(names, fields):
        attrs = [f"spin={spin}", f"flavors={flavors}", f"copies={copies}"]
        if pinned:
            attrs.append(f"statistics={pinned}")
        rng.shuffle(attrs)
        lines.append(f"field {name} " + " ".join(attrs))
        dim += _components(spin) * flavors * copies
    if mode == "antisymmetric-pair":
        lines.append("flavor antisymmetric-pair")
    elif mode == "explicit":
        matrix = workdir / f"k0-{index}.json"
        full = _explicit_matrix(rng, fields[0][1])
        matrix.write_text(json.dumps([[str(x) for x in row] for row in full]))
        lines.append(f"kinematic explicit {matrix.name}")
    text = "\n".join(lines) + "\n"

    stats = [oracle.statistics_for_spin(f[0]) for f in fields]
    conflicts = [bool(f[3]) and f[3] != s for f, s in zip(fields, stats)]
    single = stats[0] if len(set(stats)) == 1 else None
    signs = {name: oracle.sector_signs(f[0], f[2])
             for name, f in zip(names, fields)} if mode == "antisymmetric-pair" else {}

    def run(ctx):
        spec = ctx.lib.model.parse_theory(text, base_dir=workdir)
        report = ctx.lib.report.analyze_theory(spec)
        return ctx.lib.report.render_text(report), ctx.lib.report.report_to_json(report)

    def check(ctx, output):
        rendered, raw = output
        d = json.loads(raw)
        if d["status"] != status or _last_line(rendered) != f"status: {status}":
            return f"status {d['status']}, expected {status}"
        found = [(f["consistent_statistics"], bool(f["contradiction"]))
                 for f in d["fields"]]
        if found != list(zip(stats, conflicts)):
            return f"fields {found}, expected {list(zip(stats, conflicts))}"
        kin = d["kinematic"]
        if single is not None:
            split = kin["constraints"]
            if (kin["statistics"] != single or split is None
                    or split["canonical_indices"] != list(range(dim))
                    or split["constraint_indices"]):
                return "constraint split is not all-canonical"
        if mode == "explicit" and kin["invariant"] is not True:
            return "spin-0 kinematic matrix reported as not invariant"
        for name, expected in signs.items():
            text_signs = ", ".join(f"{s:+d}" for s in expected)
            if f"flavor sectors of {name}: signs ({text_signs})" not in rendered:
                return f"sector signs of {name} differ from {expected}"
            if "negative-norm sector" not in rendered:
                return "no negative-norm witness"
        return ctx.same_as_first(f"sweep{index}", raw)

    return Op(f"sweep{index}", run, check)


def scaling_sweep(lib, rng, workdir: pathlib.Path) -> list[Op]:
    """parse -> analyze -> render text and JSON, in process, on theories
    that scale spin, flavors and copies."""
    ops = [_sweep_op(i, fields, mode, status, workdir, rng)
           for i, (fields, mode, status) in enumerate(SWEEP)]
    for spin in sorted({f[0] for fields, _, _ in SWEEP for f in fields}):
        lib.su2.hermitian_basis(spin)
    rng.shuffle(ops)
    return ops


# -- gram-signature ----------------------------------------------------------

# One pass: five kinds of operation, three of each, in rising cost.  Each
# Gram matrix is given by its bracket and its number of 1-, 2- and
# 3-quantum states; a long word a^k (a^dag)^k by its k.  With 15 operations
# a pass, the median falls in the middle of the third kind and the 90th
# percentile in the middle of the fifth, not on a boundary between kinds.
GRAM_PASS = (
    ("word", 6), ("word", 6), ("word", 6),
    ("commutator", (2, 3, 2)), ("anticommutator", (2, 3, 2)),
    ("commutator", (2, 3, 2)),
    ("word", 12), ("word", 12), ("word", 12),
    ("anticommutator", (3, 4, 5)), ("commutator", (3, 4, 5)),
    ("anticommutator", (3, 4, 5)),
    ("commutator", (4, 6, 6)), ("anticommutator", (4, 6, 6)),
    ("commutator", (4, 6, 6)),
)
MODES = 4
PAIRING_MAGNITUDES = ((2, 1, 2, 1), (1, 1, 1, 2), (2, 1, 3, 1), (1, 2, 1, 1))


def _pairing_table(rng, bracket):
    """A dense real symmetric pairing with one negative diagonal entry, so
    every particle-number sector is dense and the signature has a negative
    part.  Magnitudes are fixed so that every seed costs the same; the seed
    picks the names, the signs and the negative mode."""
    modes = [f"m{t}" for t in rng.sample(range(10 ** 6), MODES)]
    negative = rng.randrange(MODES)
    pairing = {}
    for i, a in enumerate(modes):
        for j in range(i, MODES):
            v = Fraction(PAIRING_MAGNITUDES[i][j])
            if (i == negative) if i == j else rng.random() < 0.5:
                v = -v
            pairing[a, modes[j] + "dag"] = pairing[modes[j], a + "dag"] = v
    text = f"bracket = {bracket}\n" + "".join(
        f"pair {a} {c} = {v}\n" for (a, c), v in sorted(pairing.items()))
    return modes, pairing, text


def _gram_op(index, bracket, counts, rng) -> Op:
    modes, pairing, text = _pairing_table(rng, bracket)
    states = []
    for quanta, count in enumerate(counts, start=1):
        words = list(itertools.permutations(modes, quanta))
        states += [tuple(m + "dag" for m in w) for w in rng.sample(words, count)]
    rng.shuffle(states)
    gram = [[oracle.wick_entry(pairing, m, n, bracket == "anticommutator")
             for n in states] for m in states]
    matrix = [[str(x) for x in row] for row in gram]
    signature = oracle.inertia(gram)

    def run(ctx):
        table = ctx.lib.fock.parse_relation_table(text)
        return ctx.lib.fock.gram_matrix(states, table)

    def check(ctx, result):
        if result.matrix.to_nested_strings() != matrix:
            return "gram entries differ from the Wick expansion"
        if tuple(result.signature) != signature:
            return f"signature {result.signature}, expected {signature}"
        return None

    return Op(f"gram{index} {bracket} n={len(states)}", run, check)


def _long_word_op(k, rng) -> Op:
    modes, pairing, text = _pairing_table(rng, "commutator")
    a = modes[0]
    word = (a,) * k + (a + "dag",) * k
    expected = str(oracle.long_word_value(k, pairing[a, a + "dag"]))

    def run(ctx):
        table = ctx.lib.fock.parse_relation_table(text)
        return ctx.lib.fock.vacuum_expectation(word, table)

    def check(ctx, value):
        return None if str(value) == expected else f"{value}, expected {expected}"

    return Op(f"word k={k}", run, check)


def gram_signature(lib, rng, workdir: pathlib.Path) -> list[Op]:
    """Gram matrices with their signatures and long-word vacuum expectations,
    in process, over commutator and anticommutator tables."""
    ops = [_long_word_op(size, rng) if kind == "word"
           else _gram_op(i, kind, size, rng)
           for i, (kind, size) in enumerate(GRAM_PASS)]
    rng.shuffle(ops)
    return ops


WORKLOADS = {
    "corpus-cli": corpus_cli,
    "scaling-sweep": scaling_sweep,
    "gram-signature": gram_signature,
}
