"""Golden reports: the exit code and stdout digest of a fixed CLI corpus.

Each call runs `ncspec.cli.main` in process on documents written to a
temporary directory.  Its exit code and the sha256 of its standard output
must equal the entry under the call's key in `golden/reports.json`, so a
change that alters any report byte fails here with the argv of the call.
After an intended output change, rewrite the file with

    PYTHONPATH=src python tests/test_golden.py --record

The corpus is the finite and skew pools of `perfbench`, every output
format of `ncspec` and `semilattice` on rings with many cells or
degenerate ones, `spec`, `embed` and `exp` on cyclic products, and
morphism reports of quotient and table homs, and products of block rings
of different kinds.
"""

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from itertools import product
from pathlib import Path

from ncspec.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.json"


def _ring(**body):
    return {"schema": "ncspec.ring/1", **body}


def _mod(n):
    return {"kind": "modular", "n": n}


def _matrix(base, size):
    return {"kind": "matrix", "base": base, "size": size}


def _product(*mods):
    return _ring(kind="product", factors=[_mod(n) for n in mods])


def _morphism(source, target, rule):
    return {"schema": "ncspec.morphism/1", "source": source, "target": target, "rule": rule}


def _quotient(n, m):
    return _morphism(_mod(n), _mod(m), {"kind": "canonical_quotient"})


def _block_hom_f2(dims, feeds):
    """The table of the block hom out of the semisimple algebra over F2 of
    block sizes dims whose target block l is source block feeds[l]."""
    def ssa(ds):
        return {"kind": "semisimple", "base": "f2", "dims": list(ds)}

    def matrices(d):
        return [[list(flat[i * d:(i + 1) * d]) for i in range(d)]
                for flat in product(range(2), repeat=d * d)]

    pairs = [[list(x), [x[s] for s in feeds]] for x in product(*map(matrices, dims))]
    return _morphism(ssa(dims), ssa(dims[s] for s in feeds), {"kind": "table", "pairs": pairs})


def _skew(nvars, lam):
    return _ring(kind="skew_laurent", nvars=nvars, inverted=[],
                 **{"lambda": [[i, j, str(v)] for (i, j), v in lam.items()]})


def _trivial_qcoh(ring):
    n = ring["nvars"]
    body = {k: v for k, v in ring.items() if k != "schema"}
    return {"schema": "ncspec.qcoh/1", "ring": body, "module": _FREE,
            "scalars": [[i, j, "1"] for i in range(1, n + 1) for j in range(1, n + 1)
                        if i != j]}


_FREE = {"schema": "ncspec.module/1", "generators": [{"degree": 0}]}
_SK2 = _skew(2, {(1, 2): 2})
_SK3 = _skew(3, {(1, 2): 2, (1, 3): 3, (2, 3): 5})
_SK4 = _skew(4, {(i, j): 2 for i in range(1, 5) for j in range(i + 1, 5)})
_ZERO_2X2 = [[0, 0], [0, 0]]

DOCS = {
    **{f"Z{n}": _ring(kind="modular", n=n)
       for n in (1, 6, 8, 12, 30, 36, 60, 100, 210, 2310, 30030)},
    "zero": _ring(kind="zero"),
    "Z2xZ4": _product(2, 4),
    "Z6xZ10": _product(6, 10),
    "Z2xZ3xZ4": _product(2, 3, 4),
    "Z2xZ6xZ9": _product(2, 6, 9),
    "Z1xZ6": _product(1, 6),
    "F2^4": _product(2, 2, 2, 2),
    "SSA-F2-1-2": _ring(kind="semisimple", base="f2", dims=[1, 2]),
    "SSA-F2-1-2-1": _ring(kind="semisimple", base="f2", dims=[1, 2, 1]),
    "SSA-Q-2-3": _ring(kind="semisimple", base="q", dims=[2, 3]),
    "SSA-Q-1-1-1-1": _ring(kind="semisimple", base="q", dims=[1, 1, 1, 1]),
    "M2-F2": _ring(kind="matrix", base="f2", size=2),
    "Z2xM2-F2": _ring(kind="product", factors=[_mod(2), _matrix("f2", 2)]),
    "Z2xM1-F3": _ring(kind="product", factors=[_mod(2), _matrix("f3", 1)]),
    "Qx": _ring(kind="poly"),
    **{f"Z{n}-Z{m}": _quotient(n, m)
       for n, m in ((6, 3), (30, 6), (12, 4), (12, 6), (100, 10), (210, 42), (8, 2),
                     (2310, 210))},
    "Z6-Z4": _quotient(6, 4),
    "Z6-Z2xZ3": _morphism(_mod(6), {"kind": "product", "factors": [_mod(2), _mod(3)]},
                          {"kind": "table", "pairs": [[k, [k % 2, k % 3]]
                                                      for k in range(6)]}),
    "Z4-Z2": _morphism(_mod(4), _mod(2),
                       {"kind": "table", "pairs": [[k, k % 2] for k in range(4)]}),
    # diagonals of semisimple algebras: F2 -> F2 x F2, and F2 x M2(F2) ->
    # F2 x M2(F2) x M2(F2) with feeds (0, 1, 1)
    "SSA-F2-1-diagonal": _block_hom_f2((1,), (0, 0)),
    "SSA-F2-1-2-diagonal": _block_hom_f2((1, 2), (0, 1, 1)),
    # the diagonal Z/2 -> Z/2 x M2(F2), a hom between kinds of block ring
    "Z2-Z2xM2-F2-diagonal": _morphism(
        _mod(2), {"kind": "product", "factors": [_mod(2), _matrix("f2", 2)]},
        {"kind": "table", "pairs": [[k, [k, [[k, 0], [0, k]]]] for k in range(2)]}),
    "M2-F2-2chart": {
        "schema": "ncspec.glue/1",
        "pieces": [{"kind": "matrix", "base": "f2", "size": 2}] * 2,
        "overlaps": [{"from": 0, "to": 1, "subset": [_ZERO_2X2]},
                     {"from": 1, "to": 0, "subset": [_ZERO_2X2]}],
        "isos": [{"from": 0, "to": 1, "rule": {"kind": "identity"}},
                 {"from": 1, "to": 0, "rule": {"kind": "identity"}}],
    },
    "Z6-3chart": {
        "schema": "ncspec.glue/1",
        "pieces": [_mod(6)] * 3,
        "overlaps": [{"from": a, "to": b, "subset": [3]}
                     for a in range(3) for b in range(3) if a != b],
        "isos": [{"from": a, "to": b, "rule": {"kind": "identity"}}
                 for a in range(3) for b in range(3) if a != b],
    },
    "SK2": _SK2,
    "SK3": _SK3,
    "SK4": _SK4,
    "SK2-ideal-module": {
        "schema": "ncspec.module/1",
        "generators": [{"degree": 1}, {"degree": 1}],
        "relations": [[[[[0, 1], "1"]], [[[1, 0], "-1/2"]]]],
    },
    "SK2-torsion-module": {
        "schema": "ncspec.module/1",
        "generators": [{"degree": 0}, {"degree": 0}],
        "relations": [[[], [[[1, 0], "1"]]], [[], [[[0, 1], "1"]]]],
    },
    "SK2-qcoh": _trivial_qcoh(_SK2),
    "SK2-qcoh-bad-scalar": {"schema": "ncspec.qcoh/1",
                            "ring": {k: v for k, v in _SK2.items() if k != "schema"},
                            "module": _FREE, "scalars": [[1, 2, "2"], [2, 1, "1"]]},
    "SK4-qcoh": _trivial_qcoh(_SK4),
}

_FLAG = {"morphism": "--morphism", "prim-check": "--morphism", "glue": "--glue",
         "qcoh-check": "--datum"}
_LATTICE_RINGS = ("Z210", "Z2310", "Z100", "Z1", "zero", "Z2xZ4", "Z6xZ10", "Z2xZ3xZ4",
                  "F2^4", "SSA-F2-1-2", "M2-F2")
_COMMUTATIVE = ("Z1", "zero", "Z8", "Z36", "Z100", "Z210", "Z2xZ4", "Z6xZ10", "Z2xZ3xZ4")
_MORPHISMS = ("Z12-Z4", "Z12-Z6", "Z100-Z10", "Z210-Z42", "Z8-Z2",
              "Z6-Z2xZ3", "Z4-Z2", "Z6-Z4")


def _window(lo, hi, *rest):
    return ("--window", str(lo), str(hi), *rest)


# (subcommand, document, extra arguments); a module rides in the extras
CALLS = (
    # the finite pool of perfbench
    [("ncspec", r, ()) for r in ("Z6", "Z12", "Z30", "Z60", "F2^4", "SSA-F2-1-2",
                                 "SSA-Q-2-3", "M2-F2")]
    + [("semilattice", r, ()) for r in ("Z60", "F2^4", "SSA-F2-1-2")]
    + [("spec", r, ()) for r in ("Z30", "Z60", "F2^4")]
    + [("embed", r, ()) for r in ("Z12", "Z30")]
    + [("exp", r, ()) for r in ("Z6", "Z30")]
    + [(sub, m, ()) for sub in ("morphism", "prim-check") for m in ("Z6-Z3", "Z30-Z6")]
    + [("glue", "M2-F2-2chart", ())]
    # the skew pool of perfbench
    + [("proj-gamma", "SK2", _window(0, 10)),
       ("proj-gamma", "SK2", _window(0, 6, "--module", "SK2-ideal-module")),
       ("serre-check", "SK2", _window(0, 3, "--module", "SK2-torsion-module")),
       ("qcoh-check", "SK2-qcoh", ()),
       ("qcoh-check", "SK2-qcoh-bad-scalar", ()),
       ("proj-gamma", "SK2", _window(0, 30)),
       ("proj-gamma", "SK3", _window(0, 5)),
       ("proj-gamma", "SK4", _window(0, 1)),
       ("serre-check", "SK3", _window(0, 4)),
       ("serre-check", "SK4", _window(0, 1)),
       ("proj-gamma", "SK3", _window(0, 6)),
       ("proj-gamma", "SK4", _window(0, 3)),
       ("qcoh-check", "SK4-qcoh", ())]
    # every format of the lattice reports
    + [(sub, r, ("--format", fmt)) for sub in ("ncspec", "semilattice")
       for r in _LATTICE_RINGS for fmt in ("json", "dot", "text")]
    + [(sub, "Qx", ()) for sub in ("ncspec", "semilattice", "ring-validate")]
    + [(sub, "Qx", ("--format", "text")) for sub in ("ncspec", "semilattice")]
    # the commutative bridge
    + [(sub, r, ()) for sub in ("spec", "embed", "exp") for r in _COMMUTATIVE]
    + [("ring-validate", r, ()) for r in _COMMUTATIVE]
    # morphisms
    + [(sub, m, ()) for sub in ("morphism", "prim-check") for m in _MORPHISMS]
    + [("glue", g, ("--format", fmt)) for g in ("M2-F2-2chart", "Z6-3chart")
       for fmt in ("json", "dot")]
    + [("proj-gamma", "SK2", _window(0, 4, "--format", "text"))]
    # larger lattices: 32 cells for the embedding, 16 infinite cells for the sheaf
    + [("embed", "Z2310", ()), ("ncspec", "SSA-Q-1-1-1-1", ())]
    # exponentials of 32 and 64 points
    + [("exp", "Z2310", ()), ("exp", "Z30030", ())]
    # the cell order of cyclic products: 64 cells, a shared prime with a
    # prime square, a Z/1 factor; and a noncommutative semisimple algebra
    + [("ncspec", "Z30030", ()), ("semilattice", "Z30030", ("--format", "text")),
       ("semilattice", "Z2xZ6xZ9", ()), ("ncspec", "Z1xZ6", ()),
       ("ncspec", "SSA-F2-1-2-1", ())]
    # an induced morphism and its prim check over 32 target cells
    + [(sub, "Z2310-Z210", ()) for sub in ("morphism", "prim-check")]
    # prim checks whose squares have legs that are not onto, over matrix blocks
    + [("prim-check", m, ()) for m in ("SSA-F2-1-diagonal", "SSA-F2-1-2-diagonal")]
    # products of block rings of different kinds
    + [("ncspec", "Z2xM2-F2", ("--format", fmt)) for fmt in ("json", "dot")]
    + [("prim-check", "Z2-Z2xM2-F2-diagonal", ())]
    + [(sub, "Z2xM1-F3", ()) for sub in ("spec", "embed")]
)


def call_key(sub, doc, extra):
    return " ".join((sub, doc) + extra)


def call_argv(docdir, sub, doc, extra):
    """The CLI argv of a call, with document names resolved in docdir."""
    argv = [sub, _FLAG.get(sub, "--ring"), str(docdir / f"{doc}.json")]
    args = iter(extra)
    for a in args:
        argv.append(a)
        if a == "--module":
            argv.append(str(docdir / f"{next(args)}.json"))
    return argv


def run_corpus():
    """{key: {"exit": code, "sha256": digest of stdout}} for every call of CALLS."""
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        docdir = Path(tmp)
        for name, doc in DOCS.items():
            (docdir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        for sub, doc, extra in CALLS:
            argv = call_argv(docdir, sub, doc, extra)
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = main(argv)
            out[call_key(sub, doc, extra)] = {
                "exit": code,
                "sha256": hashlib.sha256(buf.getvalue().encode("utf-8")).hexdigest()}
    return out


def test_reports_match_the_golden_digests():
    want = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_corpus()
    assert len(got) == len(CALLS), "two calls of the corpus share a key"
    mismatches = [f"ncspec {key}: exit {got[key]['exit']} (want {w['exit']}), "
                  f"stdout {'same' if got[key]['sha256'] == w['sha256'] else 'differs'}"
                  for key, w in want.items() if key in got and got[key] != w]
    mismatches += [f"ncspec {key}: not recorded" for key in got if key not in want]
    mismatches += [f"ncspec {key}: recorded but not in the corpus"
                   for key in want if key not in got]
    assert not mismatches, "\n".join(mismatches)


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(run_corpus(), indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
