import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from ncspec import rings as rg
from ncspec import serialize as ser
from ncspec.cli import SUBCOMMANDS, main
from ncspec.errors import ParseError, SchemaViolation
from ncspec.qpoly import LocalizedPolyRing, UnivariatePolyRing, poly
from ncspec.rings import (
    MatrixRing,
    ModularRing,
    PrimeField,
    ProductRing,
    Rationals,
    SemisimpleAlgebra,
    ZeroRing,
)
from ncspec.skewpoly import skew_ring


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc), encoding="utf-8")
    return str(p)


RING_DOCS = [
    {"schema": "ncspec.ring/1", "kind": "zero"},
    {"schema": "ncspec.ring/1", "kind": "modular", "n": 6},
    {"schema": "ncspec.ring/1", "kind": "product",
     "factors": [{"kind": "modular", "n": 2}, {"kind": "modular", "n": 3}]},
    {"schema": "ncspec.ring/1", "kind": "matrix", "base": "f3", "size": 2},
    {"schema": "ncspec.ring/1", "kind": "semisimple", "base": "q", "dims": [2, 3]},
    {"schema": "ncspec.ring/1", "kind": "poly"},
    {"schema": "ncspec.ring/1", "kind": "skew_laurent", "nvars": 2,
     "lambda": [[1, 2, "2"]], "inverted": []},
]


def test_ring_round_trips():
    # each document of RING_DOCS against the descriptor it names
    descriptors = [
        ZeroRing(), ModularRing(6), rg.product_ring([ModularRing(2), ModularRing(3)]),
        MatrixRing(PrimeField(3), 2), SemisimpleAlgebra(Rationals(), (2, 3)),
        UnivariatePolyRing(), skew_ring(2, {(0, 1): 2}),
    ]
    assert [ser.parse_ring(doc) for doc in RING_DOCS] == descriptors


def test_parse_semisimple_example():
    r = ser.parse_ring({"schema": "ncspec.ring/1", "kind": "semisimple",
                        "base": "q", "dims": [2, 3]})
    assert r == SemisimpleAlgebra(Rationals(), (2, 3))


def test_unknown_fields_rejected():
    with pytest.raises(SchemaViolation):
        ser.parse_ring({"schema": "ncspec.ring/1", "kind": "modular", "n": 6,
                        "extra": 1})
    with pytest.raises(SchemaViolation):
        ser.parse_ring({"schema": "ncspec.ring/1", "kind": "skew_laurent",
                        "nvars": 2, "lambda": [["1", "2", "2"]][0]})


def test_malformed_lambda_shape_rejected():
    with pytest.raises(SchemaViolation):
        ser.parse_ring({"schema": "ncspec.ring/1", "kind": "skew_laurent",
                        "nvars": 2, "lambda": ["1", "2", "2"]})
    # an index out of range is named as such, not as a missing scalar
    with pytest.raises(SchemaViolation, match=r"\(0, 4\) outside"):
        ser.parse_ring({"schema": "ncspec.ring/1", "kind": "skew_laurent",
                        "nvars": 2, "lambda": [[1, 5, "2"]]})


def test_inverted_variable_listed_twice_rejected():
    with pytest.raises(SchemaViolation, match="inverted lists the variable 0 twice") as err:
        ser.parse_ring({"schema": "ncspec.ring/1", "kind": "skew_laurent", "nvars": 2,
                        "lambda": [[1, 2, "2"]], "inverted": [1, 1]})
    assert err.value.path == "ring.inverted[1]"


def test_element_round_trips():
    cases = [
        (ZeroRing(), 0),
        (MatrixRing(PrimeField(3), 2), [["1/2", 0], [1, "2"]]),
        (ModularRing(6), 4),
        (rg.product_ring([ModularRing(2), ModularRing(3)]), (1, 2)),
        (UnivariatePolyRing(), ["1/2", 0, 1]),
        (skew_ring(2, {(0, 1): 2}), [[[1, 2], "3/4"]]),
        (skew_ring(2, {(0, 1): 2}, inverted=[0]), [[[-1, 2], "3/4"]]),
        (SemisimpleAlgebra(Rationals(), (1, 2)), [[["1/2"]], [["1", "0"], ["0", "-3"]]]),
    ]
    for r, doc in cases:
        x = ser.parse_element(r, doc)
        assert ser.parse_element(r, ser.element_doc(x)) == x
    # a semisimple element is written block by block
    assert ser.element_doc(x) == doc
    # Q[x][1/g] has no document form, either way
    loc = LocalizedPolyRing(poly([-1, 1]))
    with pytest.raises(SchemaViolation, match="no element form"):
        ser.parse_element(loc, [["1"], ["1"]])
    with pytest.raises(ParseError, match="no document form"):
        ser.element_doc(loc.one)


def table_doc(source, target, pairs):
    return {"schema": "ncspec.morphism/1", "source": source, "target": target,
            "rule": {"kind": "table", "pairs": pairs}}


Z6_DOC = {"kind": "modular", "n": 6}
# the CRT isomorphism Z/2 x Z/3 -> Z/6, as a table
CRT_DOC = table_doc(
    {"kind": "product", "factors": [{"kind": "modular", "n": 2}, {"kind": "modular", "n": 3}]},
    Z6_DOC, [[[0, 0], 0], [[1, 1], 1], [[0, 2], 2], [[1, 0], 3], [[0, 1], 4], [[1, 2], 5]])


def test_morphism_round_trip():
    doc = table_doc(Z6_DOC, {"kind": "modular", "n": 3}, [[k, k % 3] for k in range(6)])
    assert ser.parse_morphism(doc) == rg.quotient_hom(6, 3)
    p23 = rg.product_ring([ModularRing(2), ModularRing(3)])
    (crt,) = rg.all_homs(p23, ModularRing(6))
    assert ser.parse_morphism(CRT_DOC) == crt


def test_cli_morphism_with_table_rule(tmp_path, capsys):
    path = write(tmp_path, "crt.json", CRT_DOC)
    code, out = run_cli(capsys, "morphism", "--morphism", path)
    assert code == 0
    payload = json.loads(out)["payload"]
    assert payload["verified"] and payload["recovered_equals_input"]


def test_rationals_as_strings():
    from fractions import Fraction
    assert ser.parse_rational("3/4") == Fraction(3, 4)
    assert ser.parse_rational(5) == Fraction(5)
    with pytest.raises(SchemaViolation):
        ser.parse_rational("0.5x")
    with pytest.raises(SchemaViolation):
        ser.parse_rational(True)
    assert ser.rational_str(Fraction(-7, 2)) == "-7/2"


def test_every_rational_form_keeps_its_value():
    from fractions import Fraction
    for v, want in [(5, 5), (-3, -3), ("7", 7), ("-10/4", Fraction(-5, 2)),
                    ("0.25", Fraction(1, 4)), ("-.5", Fraction(-1, 2)), ("3.", 3)]:
        got = ser.parse_rational(v)
        assert type(got) is Fraction and got == want, (v, got)


@pytest.mark.parametrize("v", ["1e10000000", "1E3", "2.5e-1", "1/2e3", 1.0])
def test_exponent_notation_and_floats_are_not_exact_rationals(v):
    # "1e10000000" is 10 ** 10 ** 7: building it took seconds
    with pytest.raises(SchemaViolation) as err:
        ser.parse_rational(v, "ring.lambda[0]")
    assert err.value.path == "ring.lambda[0]"


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_cli_ring_validate_every_kind(tmp_path, capsys):
    for i, doc in enumerate(RING_DOCS):
        path = write(tmp_path, f"r{i}.json", doc)
        code, out = run_cli(capsys, "ring-validate", "--ring", path)
        assert code == 0
        payload = json.loads(out)["payload"]
        assert payload["commutative"] in (True, False)


def test_cli_ncspec_dot_diamond(tmp_path, capsys):
    ring = write(tmp_path, "z6.json", {"schema": "ncspec.ring/1",
                                       "kind": "modular", "n": 6})
    code, out = run_cli(capsys, "ncspec", "--ring", ring, "--format", "dot")
    assert code == 0
    assert out.count("->") == 4      # the diamond has four covering edges
    assert "generic" in out


def test_cli_mixed_product_answers(tmp_path, capsys):
    # Z/2 x F2 in two forms: two blocks, so four cells
    for other in ({"kind": "matrix", "base": "f2", "size": 1},
                  {"kind": "semisimple", "base": "f2", "dims": [1]}):
        ring = write(tmp_path, "mixed.json", {
            "schema": "ncspec.ring/1", "kind": "product",
            "factors": [{"kind": "modular", "n": 2}, other]})
        code, out = run_cli(capsys, "ncspec", "--ring", ring)
        assert code == 0, other
        report = json.loads(out)
        assert (report["status"], report["payload"]["points"]) == ("pass", 4), other


def test_cli_deterministic_reports(tmp_path, capsys):
    ring = write(tmp_path, "z6.json", {"schema": "ncspec.ring/1",
                                       "kind": "modular", "n": 6})
    _, out1 = run_cli(capsys, "semilattice", "--ring", ring)
    _, out2 = run_cli(capsys, "semilattice", "--ring", ring)
    assert out1 == out2


def test_cli_proj_gamma(tmp_path, capsys):
    ring = write(tmp_path, "skew.json", {
        "schema": "ncspec.ring/1", "kind": "skew_laurent", "nvars": 2,
        "lambda": [[1, 2, "2"]], "inverted": []})
    code, out = run_cli(capsys, "proj-gamma", "--ring", ring,
                        "--window", "0", "6")
    assert code == 0
    payload = json.loads(out)["payload"]
    assert [payload["dims"][str(d)] for d in range(7)] == [1, 2, 3, 4, 5, 6, 7]


def test_cli_prim_check_identity(tmp_path, capsys):
    m = write(tmp_path, "m.json", {
        "schema": "ncspec.morphism/1",
        "source": {"kind": "modular", "n": 6},
        "target": {"kind": "modular", "n": 6},
        "rule": {"kind": "identity"}})
    code, out = run_cli(capsys, "prim-check", "--morphism", m)
    assert code == 0
    rep = json.loads(out)
    assert rep["status"] == "pass" and rep["payload"] == {"prim": True, "witness": None}
    assert rep["provenance"] == {}
    # the pushout verdicts are exact, so no probe family is taken
    probes = write(tmp_path, "probes.json", [{"kind": "zero"}])
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, "prim-check", "--morphism", m, "--probes", probes)
    assert exc.value.code == 2


def test_cli_embed_and_exp(tmp_path, capsys):
    ring = write(tmp_path, "z6.json", {"schema": "ncspec.ring/1",
                                       "kind": "modular", "n": 6})
    code, out = run_cli(capsys, "embed", "--ring", ring)
    assert code == 0 and json.loads(out)["status"] == "pass"
    code, out = run_cli(capsys, "exp", "--ring", ring)
    assert code == 0 and json.loads(out)["payload"]["idempotence"]


@pytest.mark.parametrize("n,primes", [(2310, 5), (30030, 6)])
def test_cli_exp_past_sixteen_points(tmp_path, capsys, n, primes):
    # the exponential of Spec of n squarefree has one point per set of primes
    ring = write(tmp_path, "r.json", {"schema": "ncspec.ring/1", "kind": "modular", "n": n})
    code, out = run_cli(capsys, "exp", "--ring", ring)
    rep = json.loads(out)
    assert code == 0 and rep["status"] == "pass", rep
    assert rep["payload"]["exponential_points"] == rep["payload"]["sober_points"] == 2 ** primes
    assert rep["payload"]["idempotence"] is True


def test_cli_glue(tmp_path, capsys):
    doc = {
        "schema": "ncspec.glue/1",
        "pieces": [{"kind": "matrix", "base": "f2", "size": 2},
                   {"kind": "matrix", "base": "f2", "size": 2}],
        "overlaps": [
            {"from": 0, "to": 1, "subset": [[[0, 0], [0, 0]]]},
            {"from": 1, "to": 0, "subset": [[[0, 0], [0, 0]]]},
        ],
        "isos": [
            {"from": 0, "to": 1, "rule": {"kind": "identity"}},
            {"from": 1, "to": 0, "rule": {"kind": "identity"}},
        ],
    }
    path = write(tmp_path, "glue.json", doc)
    code, out = run_cli(capsys, "glue", "--glue", path)
    assert code == 0
    assert json.loads(out)["payload"]["points"] == 3


def test_cli_qcoh_check(tmp_path, capsys):
    doc = {
        "schema": "ncspec.qcoh/1",
        "ring": {"kind": "skew_laurent", "nvars": 2,
                 "lambda": [[1, 2, "2"]], "inverted": []},
        "module": {"schema": "ncspec.module/1", "generators": [{"degree": 0}]},
        "scalars": [[1, 2, "1"], [2, 1, "1"]],
    }
    path = write(tmp_path, "qcoh.json", doc)
    code, out = run_cli(capsys, "qcoh-check", "--datum", path)
    assert code == 0
    bad = dict(doc)
    bad["scalars"] = [[1, 2, "2"], [2, 1, "1"]]
    path2 = write(tmp_path, "qcoh_bad.json", bad)
    code2, out2 = run_cli(capsys, "qcoh-check", "--datum", path2)
    assert code2 == 1 and json.loads(out2)["status"] == "fail"


def test_cli_qcoh_check_reports_missing_scalars(tmp_path, capsys):
    # three charts, scalars only between the first two: every triple meets a gap
    doc = {
        "schema": "ncspec.qcoh/1",
        "ring": {"kind": "skew_laurent", "nvars": 3,
                 "lambda": [[1, 2, "2"], [1, 3, "1"], [2, 3, "1"]], "inverted": []},
        "module": {"schema": "ncspec.module/1", "generators": [{"degree": 0}]},
        "scalars": [[1, 2, "1"], [2, 1, "1"]],
    }
    code, out = run_cli(capsys, "qcoh-check", "--datum", write(tmp_path, "qcoh3.json", doc))
    assert code == 1
    rep = json.loads(out)
    assert rep["status"] == "fail"
    failures = rep["payload"]["failures"]
    assert {"condition": "inverse", "pair": [0, 2]} in failures
    assert any(f["condition"] == "triple" for f in failures)


def test_cli_serre_check(tmp_path, capsys):
    ring = write(tmp_path, "skew.json", {
        "schema": "ncspec.ring/1", "kind": "skew_laurent", "nvars": 2,
        "lambda": [[1, 2, "-1"]], "inverted": []})
    code, out = run_cli(capsys, "serre-check", "--ring", ring,
                        "--window", "0", "3")
    assert code == 0
    rep = json.loads(out)
    assert all(v["injective"] and v["surjective"]
               for v in rep["payload"]["degrees"].values())


def test_cli_serre_check_inconclusive(tmp_path, capsys):
    # the ideal (x, y): its degree-0 cokernel is seen in no degree of the window
    skew = {"kind": "skew_laurent", "nvars": 2, "lambda": [[1, 2, "2"]], "inverted": []}
    ring = write(tmp_path, "skew.json", dict(skew, schema="ncspec.ring/1"))
    module = write(tmp_path, "ideal.json", {
        "schema": "ncspec.module/1", "generators": [{"degree": 1}, {"degree": 1}],
        "relations": [[[[[0, 1], "1"]], [[[1, 0], "-1/2"]]]]})
    code, out = run_cli(capsys, "serre-check", "--ring", ring, "--module", module,
                        "--window", "0", "0")
    rep = json.loads(out)
    assert code == 1 and rep["status"] == "inconclusive", rep
    deg0 = rep["payload"]["degrees"]["0"]
    assert deg0["cokernel_dim"] == 1 and deg0["cokernel_torsion"] is None


def _z6_glue(overlap_from=0, iso_from=0, subset=(2,), pairs=((0, 0), (1, 1), (2, 2))):
    """Two copies of Z/6 glued along their Z/3 charts by table isos."""
    z6 = {"kind": "modular", "n": 6}
    table = {"kind": "table", "pairs": [list(p) for p in pairs]}
    return {
        "schema": "ncspec.glue/1",
        "pieces": [z6, z6],
        "overlaps": [{"from": overlap_from, "to": 1, "subset": list(subset)},
                     {"from": 1, "to": 0, "subset": [2]}],
        "isos": [{"from": iso_from, "to": 1, "rule": table},
                 {"from": 1, "to": 0, "rule": table}],
    }


def test_cli_glue_along_table_isos(tmp_path, capsys):
    code, out = run_cli(capsys, "glue", "--glue", write(tmp_path, "g.json", _z6_glue()))
    assert code == 0
    assert json.loads(out)["payload"]["points"] == 6


def _schema_violation(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    rep = json.loads(out)
    assert code == 2 and rep["payload"]["error"] == "SchemaViolation", rep
    return rep["payload"]["message"]


def test_cli_rejects_a_table_that_lists_an_element_twice(tmp_path, capsys):
    z2 = {"kind": "modular", "n": 2}
    doc = {"schema": "ncspec.morphism/1", "source": z2, "target": z2,
           "rule": {"kind": "table", "pairs": [[0, 0], [1, 0], [1, 1]]}}
    path = write(tmp_path, "twice.json", doc)
    assert "lists 1 twice" in _schema_violation(capsys, "morphism", "--morphism", path)
    with pytest.raises(SchemaViolation) as err:
        ser.parse_morphism(doc)
    assert err.value.path == "morphism.rule.pairs[2]"


def test_cli_rejects_a_glue_iso_table_that_lists_an_element_twice(tmp_path, capsys):
    doc = _z6_glue(pairs=((0, 0), (1, 1), (2, 2), (1, 2)))
    path = write(tmp_path, "twice.json", doc)
    assert "lists 1 twice" in _schema_violation(capsys, "glue", "--glue", path)
    with pytest.raises(SchemaViolation) as err:
        ser.parse_glue(doc)
    assert err.value.path == "glue.isos[0].rule.pairs[3]"


def test_cli_rejects_malformed_lists_with_their_path(tmp_path, capsys):
    # each of these once escaped as a TypeError or IndexError traceback
    z2 = {"kind": "modular", "n": 2}

    def table(pairs):
        return {"schema": "ncspec.morphism/1", "source": z2, "target": z2,
                "rule": {"kind": "table", "pairs": pairs}}

    cases = [
        ("glue", "--glue", dict(_z6_glue(), pieces=5), "glue.pieces"),
        ("glue", "--glue", dict(_z6_glue(), overlaps=5), "glue.overlaps"),
        ("glue", "--glue", dict(_z6_glue(), isos={"from": 0}), "glue.isos"),
        ("morphism", "--morphism", table(5), "morphism.rule.pairs"),
        ("morphism", "--morphism", table([[0], [1, 1]]), "morphism.rule.pairs[0]"),
        ("morphism", "--morphism", dict(table([]), source=5), "morphism.source"),
        ("qcoh-check", "--datum", {"schema": "ncspec.qcoh/1", "ring": 5, "module": {},
                                   "scalars": []}, "qcoh.ring"),
    ]
    for k, (sub, flag, doc, path) in enumerate(cases):
        argv = (sub, flag, write(tmp_path, f"bad{k}.json", doc))
        code, out = run_cli(capsys, *argv)
        payload = json.loads(out)["payload"]
        assert code == 2 and payload["error"] == "SchemaViolation", (argv, payload)
        assert payload["path"] == path, payload


def _violation(tmp_path, capsys, sub, flag, doc):
    """The payload of a call on doc that exits 2 with a SchemaViolation."""
    code, out = run_cli(capsys, sub, flag, write(tmp_path, "doc.json", doc))
    payload = json.loads(out)["payload"]
    assert code == 2 and payload["error"] == "SchemaViolation", (doc, payload)
    return payload


RING_KEYS = ("n", "factors", "base", "size", "dims", "nvars", "lambda", "inverted")


def test_cli_rejects_a_key_of_another_ring_kind(tmp_path, capsys):
    """A ring kind reads only its own keys, at the top and inside a product."""
    for doc in RING_DOCS:
        for key in RING_KEYS:
            if key not in doc:
                payload = _violation(tmp_path, capsys, "ring-validate", "--ring",
                                     dict(doc, **{key: 2}))
                assert payload["path"] == "ring", payload
                assert payload["message"] == f"unknown fields ['{key}'] at ring", payload
    z6 = dict(RING_DOCS[1], dims=[1, 2], size=-3)
    assert _violation(tmp_path, capsys, "ring-validate", "--ring", z6)["path"] == "ring"
    product = dict(RING_DOCS[2], factors=[{"kind": "modular", "n": 2, "dims": [1]}])
    payload = _violation(tmp_path, capsys, "ring-validate", "--ring", product)
    assert payload["path"] == "ring.factors[0]", payload


def test_cli_rejects_a_zero_ring_element_that_is_not_0(tmp_path, capsys):
    zero = {"kind": "zero"}
    doc = {"schema": "ncspec.morphism/1", "source": zero, "target": zero,
           "rule": {"kind": "table", "pairs": [["junk", {"any": 1}]]}}
    payload = _violation(tmp_path, capsys, "morphism", "--morphism", doc)
    assert payload["path"] == "morphism.rule.pairs[0][0]", payload
    doc["rule"]["pairs"] = [[0, 0]]
    code, out = run_cli(capsys, "morphism", "--morphism", write(tmp_path, "ok.json", doc))
    assert code == 0, out


_SKEW = {"kind": "skew_laurent", "nvars": 2, "lambda": [[1, 2, "2"]]}


@pytest.mark.parametrize("doc, path", [
    ({"kind": "modular", "n": "12"}, "ring.n"),
    ({"kind": "modular", "n": 0}, "ring.n"),
    ({"kind": "product", "factors": 5}, "ring.factors"),
    ({"kind": "product", "factors": []}, "ring"),
    ({"kind": "product", "factors": [{"kind": "modular", "n": 0}]}, "ring.factors[0].n"),
    ({"kind": "matrix", "base": "f4", "size": 2}, "ring.base"),
    ({"kind": "matrix", "base": "f2", "size": "2"}, "ring.size"),
    ({"kind": "matrix", "base": "f2", "size": 0}, "ring.size"),
    ({"kind": "semisimple", "base": "q", "dims": 2}, "ring.dims"),
    ({"kind": "semisimple", "base": "q", "dims": []}, "ring"),
    ({"kind": "semisimple", "base": "q", "dims": [1, 0]}, "ring.dims[1]"),
    ({"kind": "semisimple", "base": "q", "dims": [1, "2"]}, "ring.dims[1]"),
    (dict(_SKEW, nvars=1), "ring.nvars"),
    (dict(_SKEW, nvars=True), "ring.nvars"),
    (dict(_SKEW, **{"lambda": 5}), "ring.lambda"),
    (dict(_SKEW, **{"lambda": [[1, 2, "2"], [1, 5, "2"]]}), "ring.lambda[1]"),
    (dict(_SKEW, **{"lambda": [[2, 1, "2"]]}), "ring.lambda[0]"),
    (dict(_SKEW, **{"lambda": [[1, 2, "0"]]}), "ring.lambda[0]"),
    (dict(_SKEW, **{"lambda": [[1, 2, "x"]]}), "ring.lambda[0]"),
    (dict(_SKEW, nvars=3), "ring"),                       # no scalar for (2, 3)
    (dict(_SKEW, inverted=[1, 3]), "ring.inverted[1]"),
    (dict(_SKEW, inverted=["1"]), "ring.inverted[0]"),
    (dict(_SKEW, **{"lambda": [[1, 2, "2"], [1, 2, "3"]]}), "ring.lambda[1]"),   # a pair twice
    # 10^400 - 1 is divisible by 3; its square root is past a float's range
    ({"kind": "matrix", "base": "f" + "9" * 400, "size": 2}, "ring.base"),
    (dict(_SKEW, **{"lambda": [[1, 2, "1e10000000"]]}), "ring.lambda[0]"),
    # the next prime after 10^29, past the bound where Miller-Rabin on 2..41 is exact
    ({"kind": "matrix", "base": "f100000000000000000000000000319", "size": 2}, "ring.base"),
])
def test_cli_reports_a_bad_ring_value_at_its_key(tmp_path, capsys, doc, path):
    doc = dict(doc, schema="ncspec.ring/1")
    payload = _violation(tmp_path, capsys, "ring-validate", "--ring", doc)
    assert payload["path"] == path, payload


def test_a_large_prime_base_is_decided_at_once(tmp_path, capsys):
    # 10^18 + 3 is prime: trial division up to its square root took minutes
    import time
    doc = {"schema": "ncspec.ring/1", "kind": "matrix", "base": "f1000000000000000003", "size": 2}
    start = time.perf_counter()
    code, out = run_cli(capsys, "ring-validate", "--ring", write(tmp_path, "f.json", doc))
    assert time.perf_counter() - start < 1.0
    assert code == 0 and json.loads(out)["payload"]["ring"] == "M2(F1000000000000000003)"


@pytest.mark.parametrize("r, doc, path", [
    (ZeroRing(), "junk", "element"),
    (ZeroRing(), 1, "element"),
    (MatrixRing(Rationals(), 2), [["1", "0"], ["0", "x"]], "element[1][1]"),
    (SemisimpleAlgebra(PrimeField(2), (1, 2)), [[[1]], [[1, 0], [None, 1]]], "element[1][1][0]"),
    (UnivariatePolyRing(), ["1", "1/0"], "element[1]"),
    (skew_ring(2, {(0, 1): 2}), [[[1, 0], "1"], [[0, 1], "x"]], "element[1]"),
    (skew_ring(2, {(0, 1): 2}), [[[1, 0, 0], "1"]], "element[0]"),
    (MatrixRing(PrimeField(2), 2), [["1", "0"], ["0", "1/2"]], "element[1][1]"),
    (MatrixRing(PrimeField(2), 2), [[1, 0], [0, True]], "element[1][1]"),
    (MatrixRing(Rationals(), 2), [[True, 0], [0, 1]], "element[0][0]"),
    (MatrixRing(Rationals(), 2), [["1e2", 0], [0, 1]], "element[0][0]"),
])
def test_a_bad_coefficient_is_reported_at_its_entry(r, doc, path):
    with pytest.raises(SchemaViolation) as err:
        ser.parse_element(r, doc)
    assert err.value.path == path


def test_cli_reports_a_bad_table_coefficient_at_its_entry(tmp_path, capsys):
    m2 = {"kind": "matrix", "base": "f2", "size": 2}
    pairs = [[[[0, 0], [0, 0]], [[0, 0], [0, 0]]], [[[1, 0], [0, "1/"]], [[1, 0], [0, 1]]]]
    doc = {"schema": "ncspec.morphism/1", "source": m2, "target": m2,
           "rule": {"kind": "table", "pairs": pairs}}
    payload = _violation(tmp_path, capsys, "morphism", "--morphism", doc)
    assert payload["path"] == "morphism.rule.pairs[1][0][1][1]", payload


def test_fp_matrix_entries_are_read_as_elements_of_the_field():
    # 7/2 = 7 * 2^-1 = 1 * 2 = 2 in F3
    ssa = SemisimpleAlgebra(PrimeField(3), (1,))
    assert ser.parse_element(ssa, [[["7/2"]]]) == ser.parse_element(ssa, [[[2]]])
    m2 = MatrixRing(PrimeField(5), 2)
    assert ser.parse_element(m2, [["1/2", "-1/3"], [4, "10/4"]]).payload == ((3, 3), (4, 0))


def test_an_int_matrix_entry_is_the_same_scalar_as_its_string(tmp_path, capsys):
    """An F_p entry written 1 or "1" gives the same report, and an int
    entry over Q is still read as a Fraction."""
    from fractions import Fraction

    def diagonal(one):
        def ssa(dims):
            return {"kind": "semisimple", "base": "f2", "dims": dims}
        return {"schema": "ncspec.morphism/1", "source": ssa([1]), "target": ssa([1, 1]),
                "rule": {"kind": "table", "pairs": [[[[[0]]], [[[0]], [[0]]]],
                                                    [[[[one]]], [[[one]], [[one]]]]]}}

    reports = []
    for one in (1, "1"):
        code, out = run_cli(capsys, "prim-check", "--morphism",
                            write(tmp_path, "diagonal.json", diagonal(one)))
        assert code == 0, out
        reports.append(out)
    assert reports[0] == reports[1]
    m2q = ser.parse_element(MatrixRing(Rationals(), 2), [[1, 0], ["-3", "1/2"]])
    assert all(type(v) is Fraction for row in m2q.payload for v in row)
    assert m2q.payload == ((1, 0), (-3, Fraction(1, 2)))


def test_cli_rejects_an_fp_entry_whose_denominator_p_divides(tmp_path, capsys):
    m2 = {"kind": "matrix", "base": "f2", "size": 2}
    pairs = [[[[0, 0], [0, 0]], [[0, 0], [0, 0]]], [[[1, 0], [0, 1]], [[1, 0], [0, "1/2"]]]]
    doc = {"schema": "ncspec.morphism/1", "source": m2, "target": m2,
           "rule": {"kind": "table", "pairs": pairs}}
    payload = _violation(tmp_path, capsys, "morphism", "--morphism", doc)
    assert payload["path"] == "morphism.rule.pairs[1][1][1][1]", payload
    assert "2 divides its denominator" in payload["message"]


def test_cli_rejects_a_rule_key_its_kind_does_not_read(tmp_path, capsys):
    z6, z3, z2 = ({"kind": "modular", "n": n} for n in (6, 3, 2))
    cases = [
        (z6, z3, {"kind": "canonical_quotient", "m": 99, "pairs": "junk"}, "['m', 'pairs']"),
        (z6, z3, {"kind": "canonical_quotient", "m": 3}, "['m']"),
        (z2, z2, {"kind": "identity", "pairs": [[0, 0], [1, 1]]}, "['pairs']"),
        (z6, {"kind": "zero"}, {"kind": "to_zero", "pairs": []}, "['pairs']"),
        (z2, z2, {"kind": "table", "pairs": [[0, 0], [1, 1]], "m": 2}, "['m']"),
    ]
    for source, target, rule, keys in cases:
        doc = {"schema": "ncspec.morphism/1", "source": source, "target": target, "rule": rule}
        for sub in ("morphism", "prim-check"):
            payload = _violation(tmp_path, capsys, sub, "--morphism", doc)
            assert payload["path"] == "morphism.rule", payload
            assert payload["message"] == f"unknown fields {keys} at morphism.rule", payload


def test_cli_rejects_a_table_rule_without_pairs(tmp_path, capsys):
    # each of these once escaped as a KeyError traceback
    z2 = {"kind": "modular", "n": 2}
    morphism = {"schema": "ncspec.morphism/1", "source": z2, "target": z2,
                "rule": {"kind": "table"}}
    glue = _z6_glue()
    glue["isos"][1]["rule"] = {"kind": "table"}
    for sub, flag, doc, path in (("morphism", "--morphism", morphism, "morphism.rule"),
                                 ("glue", "--glue", glue, "glue.isos[1].rule")):
        payload = _violation(tmp_path, capsys, sub, flag, doc)
        assert payload["message"] == f"missing fields ['pairs'] at {path}", payload


def test_cli_rejects_a_glue_iso_rule_key_its_kind_does_not_read(tmp_path, capsys):
    identity = _z6_glue()
    for iso in identity["isos"]:
        iso["rule"] = {"kind": "identity"}
    assert run_cli(capsys, "glue", "--glue", write(tmp_path, "g.json", identity))[0] == 0
    identity["isos"][1]["rule"]["pairs"] = []
    table = _z6_glue()
    table["isos"][1]["rule"] = dict(table["isos"][1]["rule"], m=3)
    for doc, path in ((identity, "glue.isos[1].rule"), (table, "glue.isos[1].rule")):
        assert _violation(tmp_path, capsys, "glue", "--glue", doc)["path"] == path
    # an iso reads only identity and table rules
    to_zero = _z6_glue()
    to_zero["isos"][0]["rule"] = {"kind": "to_zero"}
    assert _violation(tmp_path, capsys, "glue", "--glue", to_zero)["path"] == "glue.isos[0].rule"


def test_cli_qcoh_errors_name_their_path_in_the_datum(tmp_path, capsys):
    qcoh = FORMAT_DOCS["qcoh"]
    degree = dict(qcoh, module={"schema": "ncspec.module/1", "generators": [{"degree": "0"}]})
    payload = _violation(tmp_path, capsys, "qcoh-check", "--datum", degree)
    assert payload["path"] == "qcoh.module.generators[0].degree", payload
    payload = _violation(tmp_path, capsys, "qcoh-check", "--datum",
                         dict(qcoh, schema="ncspec.qcoh/2"))
    assert payload == {"error": "SchemaViolation", "message": "expected schema ncspec.qcoh/1",
                       "path": "qcoh"}, payload


def test_readme_documents_table_matches_the_keys():
    """Each row of the README's Documents table is one row of `serialize.KEYS`."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    rows = {}
    table = readme.split("### Documents", 1)[1].split("\n\n")[2]
    for line in table.splitlines()[2:]:
        cells = line.strip("|").replace("`", "").split("|")
        doc, kind, required, optional = (c.strip() for c in cells)
        name = doc.split(".")[1].split("/")[0] if doc.startswith("ncspec.") else doc
        rows[name, kind] = (required.split(", "), optional.split(", ") if optional else [])
    expected = {}
    for name, keys in ser.KEYS.items():
        kinds = keys.items() if isinstance(keys, dict) else [("", keys)]
        for kind, spec in kinds:
            spec = (["kind"] if kind else []) + spec.split()
            expected[name, kind] = ([k for k in spec if not k.endswith("?")],
                                    [k[:-1] for k in spec if k.endswith("?")])
    assert rows == expected


def test_cli_failure_report_names_the_error_path(tmp_path, capsys):
    """A SchemaViolation's path reaches the report; an error without one
    (a map that is no hom) adds no path field."""
    z2 = {"kind": "modular", "n": 2}
    twice = write(tmp_path, "twice.json", {
        "schema": "ncspec.morphism/1", "source": z2, "target": z2,
        "rule": {"kind": "table", "pairs": [[0, 0], [1, 1], [0, 0]]}})
    for sub in ("morphism", "prim-check"):
        code, out = run_cli(capsys, sub, "--morphism", twice)
        payload = json.loads(out)["payload"]
        assert code == 2 and payload["error"] == "SchemaViolation", payload
        assert payload["path"] == "morphism.rule.pairs[2]" and "lists 0 twice" in payload["message"]
    not_a_hom = write(tmp_path, "z6z4.json", {
        "schema": "ncspec.morphism/1", "source": {"kind": "modular", "n": 6},
        "target": {"kind": "modular", "n": 4}, "rule": {"kind": "canonical_quotient"}})
    code, out = run_cli(capsys, "morphism", "--morphism", not_a_hom)
    payload = json.loads(out)["payload"]
    assert code == 2 and list(payload) == ["error", "message"], payload


def test_skew_commands_check_their_inputs_in_order(tmp_path, capsys):
    """`proj-gamma` and `serre-check` check the window, the box and the
    torsion bound before reading a document, then the ring, then the module."""
    skew = write(tmp_path, "skew.json", RING_DOCS[-1])
    z6 = write(tmp_path, "z6.json", RING_DOCS[1])
    missing = str(tmp_path / "missing.json")
    window = ("--window", "0", "1")
    cases = [
        (("proj-gamma", "--ring", missing, "--window", "2", "1", "--box", "-1"),
         "--window 2 1: the low degree exceeds the high one"),
        (("serre-check", "--ring", missing, "--window", "2", "1", "--torsion-bound", "0"),
         "--window 2 1: the low degree exceeds the high one"),
        (("serre-check", "--ring", missing, *window, "--box", "-1", "--torsion-bound", "0"),
         "--box -1: the truncation depth must be >= 0"),
        (("serre-check", "--ring", missing, *window, "--torsion-bound", "0"),
         "--torsion-bound 0: the bound must be >= 1"),
        (("proj-gamma", "--ring", z6, *window, "--module", missing),
         "proj-gamma expects a skew Laurent ring"),
        (("serre-check", "--ring", z6, *window, "--module", missing),
         "serre-check expects a skew Laurent ring"),
        (("serre-check", "--ring", skew, *window, "--module", missing),
         f"cannot read {missing}: "),
    ]
    for argv, message in cases:
        code, out = run_cli(capsys, *argv)
        payload = json.loads(out)["payload"]
        assert code == 2 and payload["error"] == "ParseError", argv
        assert payload["message"].startswith(message), (argv, payload)


def test_cli_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out = run_cli(capsys, "ncspec", "--ring", str(bad))
    assert code == 2
    assert json.loads(out)["payload"]["error"] in ("ParseError", "SchemaViolation")
    # skew-Proj arguments and documents that used to be answered misleadingly
    skew = {"kind": "skew_laurent", "nvars": 2, "lambda": [[1, 2, "2"]], "inverted": []}
    ring = write(tmp_path, "skew.json", dict(skew, schema="ncspec.ring/1"))
    window = ("--ring", ring, "--window", "0", "2")
    cases = [
        ("proj-gamma", "--ring", ring, "--window", "3", "1"),
        ("proj-gamma", *window, "--box", "-1"),
        ("serre-check", "--ring", ring, "--window", "2", "0"),
        ("serre-check", *window, "--box", "-1"),
        ("serre-check", *window, "--torsion-bound", "0"),
    ]
    for k, box in enumerate((-1, True, "2")):
        datum = write(tmp_path, f"qcoh{k}.json", {
            "schema": "ncspec.qcoh/1", "ring": skew,
            "module": {"schema": "ncspec.module/1", "generators": [{"degree": 0}]},
            "scalars": [[1, 2, "1"], [2, 1, "1"]], "box": box})
        cases.append(("qcoh-check", "--datum", datum))
    # ring documents read with strict integers and checked lambda indices
    bad_rings = [
        {"kind": "modular", "n": True},
        {"kind": "modular", "n": "12"},
        {"kind": "matrix", "base": "f2", "size": 2.7},
        {"kind": "semisimple", "base": "f2", "dims": [1, "2"]},
        dict(skew, nvars=2.0),
        dict(skew, inverted=[True]),
        dict(skew, **{"lambda": [["1", 2, "2"]]}),
        dict(skew, **{"lambda": [[1, 2, "2"], [2, 1, "3"]]}),
        dict(skew, **{"lambda": [[1, 2, "2"], [0, 3, "5"]]}),
        dict(skew, **{"lambda": [[1, 5, "2"]]}),
    ]
    for i, doc in enumerate(bad_rings):
        cases.append(("ring-validate", "--ring",
                      write(tmp_path, f"bad{i}.json", dict(doc, schema="ncspec.ring/1"))))
    # table rules must list every source element; glue indices and Z/n
    # payloads are strict integers, and glue indices name a piece
    z4, z2 = {"kind": "modular", "n": 4}, {"kind": "modular", "n": 2}
    bad_morphisms = [
        {"source": z4, "target": z2, "rule": {"kind": "table",
                                              "pairs": [[0, 0], [1, 1], [2, 0]]}},
        {"source": z2, "target": z2, "rule": {"kind": "table",
                                              "pairs": [["0", 0], [1, 1]]}},
    ]
    for i, doc in enumerate(bad_morphisms):
        cases.append(("morphism", "--morphism", write(
            tmp_path, f"badm{i}.json", dict(doc, schema="ncspec.morphism/1"))))
    bad_glues = [
        _z6_glue(overlap_from=5),
        _z6_glue(overlap_from="0"),
        _z6_glue(overlap_from=0.9),
        _z6_glue(iso_from=-1),
        _z6_glue(subset=["2"]),
        _z6_glue(pairs=[[0, 0], [1, 1]]),
    ]
    # isos and overlaps must pair up
    unpaired = _z6_glue()
    unpaired["overlaps"] = unpaired["overlaps"][:1]
    bad_glues.append(unpaired)
    bad_glues.append(dict(_z6_glue(), isos=[]))
    # skew exponents are strict integers in element documents too
    skew_piece = dict(skew, inverted=[1])
    bad_glues.append({
        "schema": "ncspec.glue/1", "pieces": [skew_piece, skew_piece],
        "overlaps": [{"from": 0, "to": 1, "subset": [[[[0, 1.0], "1"]]]},
                     {"from": 1, "to": 0, "subset": [[[[0, 1], "1"]]]}],
        "isos": [{"from": 0, "to": 1, "rule": {"kind": "identity"}},
                 {"from": 1, "to": 0, "rule": {"kind": "identity"}}]})
    for i, doc in enumerate(bad_glues):
        cases.append(("glue", "--glue", write(tmp_path, f"badg{i}.json", doc)))
    module = write(tmp_path, "degree.json", {"schema": "ncspec.module/1",
                                             "generators": [{"degree": "0"}]})
    cases.append(("proj-gamma", *window, "--module", module))
    exponent = write(tmp_path, "exponent.json", {
        "schema": "ncspec.module/1", "generators": [{"degree": 0}],
        "relations": [[[[["1", 0], "1"]]]]})
    cases.append(("proj-gamma", *window, "--module", exponent))
    # qcoh scalar indices are strict integers naming a chart
    for k, scalar in enumerate(([1.9, 2, "1"], [1, 7, "1"], ["1", 2, "1"], [1, 2])):
        datum = write(tmp_path, f"scalars{k}.json", {
            "schema": "ncspec.qcoh/1", "ring": skew,
            "module": {"schema": "ncspec.module/1", "generators": [{"degree": 0}]},
            "scalars": [scalar, [2, 1, "1"]]})
        cases.append(("qcoh-check", "--datum", datum))
    for argv in cases:
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["payload"]["error"] in ("ParseError", "SchemaViolation"), argv


_SKEW2 = {"kind": "skew_laurent", "nvars": 2, "lambda": [[1, 2, "2"]], "inverted": []}
# input document per name; the flag each subcommand takes it with
FORMAT_DOCS = {
    "z6": {"schema": "ncspec.ring/1", "kind": "modular", "n": 6},
    "qx": {"schema": "ncspec.ring/1", "kind": "poly"},
    "skew": dict(_SKEW2, schema="ncspec.ring/1"),
    "quotient": {"schema": "ncspec.morphism/1", "source": {"kind": "modular", "n": 6},
                 "target": {"kind": "modular", "n": 3},
                 "rule": {"kind": "canonical_quotient"}},
    "glue": _z6_glue(),
    "qcoh": {"schema": "ncspec.qcoh/1", "ring": _SKEW2,
             "module": {"schema": "ncspec.module/1", "generators": [{"degree": 0}]},
             "scalars": [[1, 2, "1"], [2, 1, "1"]]},
}
WINDOW = ("--window", "0", "1")
# (subcommand, flag, document, extra arguments, formats it cannot render)
UNRENDERED = [
    ("ring-validate", "--ring", "z6", (), ("dot", "text")),
    ("ncspec", "--ring", "qx", (), ("dot", "text")),
    ("semilattice", "--ring", "qx", (), ("dot", "text")),
    ("morphism", "--morphism", "quotient", (), ("dot", "text")),
    ("prim-check", "--morphism", "quotient", (), ("dot", "text")),
    ("spec", "--ring", "z6", (), ("dot", "text")),
    ("embed", "--ring", "z6", (), ("dot", "text")),
    ("exp", "--ring", "z6", (), ("dot", "text")),
    ("glue", "--glue", "glue", (), ("text",)),
    ("qcoh-check", "--datum", "qcoh", (), ("dot", "text")),
    ("proj-gamma", "--ring", "skew", WINDOW, ("dot",)),
    ("serre-check", "--ring", "skew", WINDOW, ("dot", "text")),
]


@pytest.mark.parametrize("sub, flag, doc, extra, fmt", [
    (sub, flag, doc, extra, fmt) for sub, flag, doc, extra, fmts in UNRENDERED
    for fmt in fmts])
def test_cli_rejects_a_format_it_cannot_render(tmp_path, capsys, sub, flag, doc, extra, fmt):
    path = write(tmp_path, f"{doc}.json", FORMAT_DOCS[doc])
    code, out = run_cli(capsys, sub, flag, path, *extra, "--format", fmt)
    assert code == 2
    rep = json.loads(out)
    assert rep["subcommand"] == sub and rep["status"] == "fail"
    assert rep["payload"]["error"] == "ParseError"
    assert fmt in rep["payload"]["message"]


def test_cli_rejects_a_format_before_the_work(tmp_path, capsys, monkeypatch):
    import ncspec.commbridge as cb
    calls = []
    monkeypatch.setattr(cb, "spec_exponential_iso", calls.append)
    path = write(tmp_path, "z6.json", FORMAT_DOCS["z6"])
    code, out = run_cli(capsys, "exp", "--ring", path, "--format", "dot")
    assert code == 2 and json.loads(out)["payload"]["error"] == "ParseError"
    assert calls == []


def test_cli_rejects_malformed_coordinates_and_exponents(tmp_path, capsys):
    # a product or semisimple element needs one coordinate per factor, each
    # block is a square matrix of its size, a skew exponent vector has one
    # entry per variable, and a relation is a list of [exponents, scalar]
    p23 = {"kind": "product", "factors": [{"kind": "modular", "n": 2},
                                          {"kind": "modular", "n": 3}]}
    pairs = [[[a, b], [a, b]] for a in range(2) for b in range(3)]
    ssa = {"kind": "semisimple", "base": "f2", "dims": [1, 1]}
    blocks = [[[[a]], [[b]]] for a in range(2) for b in range(2)]
    bad_pairs = [
        (p23, [[[1], [0, 0]]] + pairs[1:]),
        (ssa, [[[[[0]]], blocks[0]]] + [[x, x] for x in blocks[1:]]),
        (ssa, [[[[[0, 1]], [[1]]], blocks[1]]] + [[x, x] for x in blocks[:1] + blocks[2:]]),
    ]
    cases = []
    for i, (ring, table) in enumerate(bad_pairs):
        cases.append(("morphism", "--morphism", write(tmp_path, f"m{i}.json", {
            "schema": "ncspec.morphism/1", "source": ring, "target": ring,
            "rule": {"kind": "table", "pairs": table}})))
    glue = {"schema": "ncspec.glue/1", "pieces": [p23, p23],
            "overlaps": [{"from": 0, "to": 1, "subset": [[1]]},
                         {"from": 1, "to": 0, "subset": [[1, 1]]}],
            "isos": [{"from": 0, "to": 1, "rule": {"kind": "identity"}},
                     {"from": 1, "to": 0, "rule": {"kind": "identity"}}]}
    cases.append(("glue", "--glue", write(tmp_path, "g.json", glue)))
    ring = write(tmp_path, "skew.json", dict(_SKEW2, schema="ncspec.ring/1"))
    # relations are rows of entries, and an entry is a list of terms
    entries = [[[[1], "1"]], [[[1, 0, 0], "1"]], [1], [[[0, 0], "1", 3]]]
    for k, rel in enumerate([[[e]] for e in entries] + [[5]]):
        module = write(tmp_path, f"rel{k}.json", {
            "schema": "ncspec.module/1", "generators": [{"degree": 0}], "relations": rel})
        cases.append(("proj-gamma", "--ring", ring, "--window", "0", "2", "--module", module))
    skew_piece = dict(_SKEW2, inverted=[1])
    cases.append(("glue", "--glue", write(tmp_path, "gs.json", {
        "schema": "ncspec.glue/1", "pieces": [skew_piece, skew_piece],
        "overlaps": [{"from": 0, "to": 1, "subset": [[[[1], "1"]]]},
                     {"from": 1, "to": 0, "subset": [[[[1, 0], "1"]]]}],
        "isos": [{"from": 0, "to": 1, "rule": {"kind": "identity"}},
                 {"from": 1, "to": 0, "rule": {"kind": "identity"}}]})))
    for argv in cases:
        code, out = run_cli(capsys, *argv)
        assert code == 2, argv
        assert json.loads(out)["payload"]["error"] == "SchemaViolation", argv


NAMES = [row[0] for row in SUBCOMMANDS]


def parse_exit(capsys, *argv):
    """The exit code of a call that the command-line parser ends, and its
    stdout and stderr."""
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    captured = capsys.readouterr()
    return exc.value.code, captured.out, captured.err


@pytest.mark.parametrize("name, flag", [row[:2] for row in SUBCOMMANDS])
def test_each_subcommand_has_help_and_requires_its_input(capsys, name, flag):
    code, out, _err = parse_exit(capsys, name, "-h")
    assert code == 0 and out.startswith(f"usage: ncspec {name} ") and flag in out
    code, out, err = parse_exit(capsys, name)
    assert code == 2 and out == "" and err.startswith(f"usage: ncspec {name} ")
    assert f"the following arguments are required: {flag}" in err


def test_an_unknown_subcommand_lists_all_twelve(capsys):
    code, _out, err = parse_exit(capsys, "bogus")
    assert code == 2 and "invalid choice: 'bogus'" in err
    assert err.count("'") == 2 * (len(NAMES) + 1) and all(f"'{n}'" in err for n in NAMES)
    assert len(NAMES) == 12


def test_an_option_takes_its_value_after_an_equals_sign(tmp_path, capsys):
    ring = write(tmp_path, "z6.json", RING_DOCS[1])
    code, out = run_cli(capsys, "ring-validate", f"--ring={ring}")
    assert code == 0 and json.loads(out)["payload"]["ring"] == "Z/6"


def test_a_unique_prefix_names_its_option(tmp_path, capsys):
    ring = write(tmp_path, "z6.json", RING_DOCS[1])
    code, out = run_cli(capsys, "ncspec", "--ring", ring, "--form", "text")
    assert (code, out) == (0, "points: 4, generic: 0\n")
    skew = write(tmp_path, "skew.json", RING_DOCS[-1])
    code, out = run_cli(capsys, "serre-check", "--r", skew, "--w", "0", "1", "--t", "2")
    assert code == 0 and json.loads(out)["provenance"]["torsion_bound"] == 2


def test_a_negative_number_is_a_value(tmp_path, capsys):
    skew = write(tmp_path, "skew.json", RING_DOCS[-1])
    code, out = run_cli(capsys, "proj-gamma", "--ring", skew, "--window", "0", "1",
                        "--box", "-1")
    payload = json.loads(out)["payload"]
    assert code == 2 and payload["error"] == "ParseError"
    assert payload["message"].startswith("--box -1: the truncation depth")
    code, out = run_cli(capsys, "proj-gamma", "--ring", skew, "--window", "-1", "0")
    assert code == 0 and json.loads(out)["provenance"]["window"] == [-1, 0]


def test_a_repeated_option_keeps_its_last_value(tmp_path, capsys):
    skew = write(tmp_path, "skew.json", RING_DOCS[-1])
    code, out = run_cli(capsys, "proj-gamma", "--ring", skew, "--window", "0", "1",
                        "--box", "5", "--box", "1")
    assert code == 0 and json.loads(out)["provenance"]["box"] == 1


@pytest.mark.parametrize("argv, message", [
    (("ring-validate", "--ring", "-x.json"), "argument --ring: expected one argument"),
    (("proj-gamma", "--ring", "s.json", "--window", "0"),
     "argument --window: expected 2 arguments"),
    (("proj-gamma", "--ring", "s.json", "--window=0", "1"),
     "argument --window: expected 2 arguments"),
    (("proj-gamma", "--ring", "s.json", "--window", "a", "1"),
     "argument --window: invalid int value: 'a'"),
    (("proj-gamma", "--ring", "s.json", "--window", "0", "1", "--box", "x"),
     "argument --box: invalid int value: 'x'"),
    (("serre-check", "--ring", "s.json", "--window", "0", "1", "--torsion-bound", "1.5"),
     "argument --torsion-bound: invalid int value: '1.5'"),
    (("ring-validate", "--ring", "r.json", "--format", "xml"),
     "argument --format: invalid choice: 'xml' (choose from 'json', 'dot', 'text')"),
    (("prim-check", "--morphism", "m.json", "--probes", "p.json"),
     "unrecognized arguments: --probes"),
    (("ring-validate", "--ring", "r.json", "extra"), "unrecognized arguments: extra"),
    (("ring-validate", "--ring", "r.json", "--box", "3"), "unrecognized arguments: --box"),
])
def test_a_bad_command_line_exits_2_with_its_usage(capsys, argv, message):
    code, out, err = parse_exit(capsys, *argv)
    usage, error = err.splitlines()
    assert code == 2 and out == ""
    assert usage.startswith(f"usage: ncspec {argv[0]} [-h] ")
    assert error == f"ncspec {argv[0]}: error: {message}"


def test_help_names_each_option_and_its_default(capsys):
    code, out, _err = parse_exit(capsys, "serre-check", "--ring", "s.json", "--help")
    assert code == 0 and out.startswith("usage: ncspec serre-check [-h] --ring RING ")
    assert "--window WINDOW WINDOW  (required)" in out
    assert "--box BOX  (default 2)" in out and "--torsion-bound TORSION_BOUND  (default 3)" in out
    code, out, _err = parse_exit(capsys, "--help")
    assert code == 0 and out.startswith("usage: ncspec [-h] {ring-validate,")


# -- the process entry ------------------------------------------------------------

ROOT = Path(__file__).resolve().parent.parent
CHILD_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]))
# `python -m ncspec.cli` with a last atexit hook that appends the freeze
# count to stderr
ENTRY_CHILD = ("import atexit, gc, os, runpy\n"
               "atexit.register(lambda: os.write(2, b'\\nfrozen %d' % gc.get_freeze_count()))\n"
               "runpy.run_module('ncspec.cli', run_name='__main__')\n")


def cold(argv, **kwargs):
    """A finished `python -m ncspec.cli <argv>` child, stderr as text."""
    return subprocess.run([sys.executable, "-m", "ncspec.cli", *argv], env=CHILD_ENV,
                          stderr=subprocess.PIPE, text=True, timeout=120, **kwargs)


def entry_cases(tmp_path):
    bad_scalar = {"schema": "ncspec.qcoh/1", "ring": {k: v for k, v in RING_DOCS[-1].items()
                                                      if k != "schema"},
                  "module": {"schema": "ncspec.module/1", "generators": [{"degree": 0}]},
                  "scalars": [[1, 2, "2"], [2, 1, "1"]]}
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    return {"pass": ["ring-validate", "--ring", write(tmp_path, "z6.json", RING_DOCS[1])],
            "failing check": ["qcoh-check", "--datum", write(tmp_path, "q.json", bad_scalar)],
            "rejected document": ["ncspec", "--ring", str(bad)],
            "bad command line": ["ring-validate"]}


@pytest.mark.parametrize("case, want", [("pass", 0), ("failing check", 1),
                                        ("rejected document", 2), ("bad command line", 2)])
def test_the_entry_freezes_the_heap_and_reports_as_main(tmp_path, capsys, case, want):
    argv = entry_cases(tmp_path)[case]
    frozen = gc.get_freeze_count()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert gc.get_freeze_count() == frozen
    out = capsys.readouterr().out
    child = subprocess.run([sys.executable, "-c", ENTRY_CHILD, *argv], env=CHILD_ENV,
                           capture_output=True, text=True, timeout=120)
    assert (child.returncode, child.stdout) == (code, out) and code == want
    assert int(child.stderr.rsplit("\nfrozen ", 1)[1]) > 0


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [["ring-validate", "--ring", "{z6}"],
                                  ["ncspec", "--ring", "{z6}", "--format", "dot"],
                                  ["ring-validate", "-h"]])
def test_a_report_that_cannot_be_written_exits_74(tmp_path, argv):
    z6 = write(tmp_path, "z6.json", RING_DOCS[1])
    with open("/dev/full", "w") as full:
        child = cold([a.format(z6=z6) for a in argv], stdout=full)
    assert (child.returncode, child.stderr) == (
        74, "ncspec: cannot write the report: No space left on device\n")


def test_a_report_to_a_closed_pipe_exits_74(tmp_path):
    z6 = write(tmp_path, "z6.json", RING_DOCS[1])
    read, written = os.pipe()
    os.close(read)
    try:
        child = cold(["ring-validate", "--ring", z6], stdout=written)
    finally:
        os.close(written)
    assert (child.returncode, child.stderr) == (74, "ncspec: cannot write the report: "
                                                    "Broken pipe\n")


def test_every_process_caller_runs_the_one_entry():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    cli = (ROOT / "src" / "ncspec" / "cli.py").read_text(encoding="utf-8")
    package_main = (ROOT / "src" / "ncspec" / "__main__.py").read_text(encoding="utf-8")
    # the console script, `python -m ncspec.cli` and `python -m ncspec`
    script = re.search(r'^\[project\.scripts\]\nncspec = "ncspec\.cli:(\w+)"$',
                       pyproject, re.M)
    cli_block = re.search(r'^if __name__ == "__main__":\n    sys\.exit\((\w+)\(\)\)\n\Z',
                          cli, re.M)
    package = re.fullmatch(r"import sys\n\nfrom \.cli import (\w+)\n\nsys\.exit\((\w+)\(\)\)\n",
                           package_main)
    assert script and cli_block and package
    names = {script[1], cli_block[1], package[1], package[2]}
    assert len(names) == 1
    entry = re.search(rf"^def {names.pop()}\(\):\n(?:    .*\n|\n)+", cli, re.M)
    assert entry and "gc.freeze()" in entry[0]
    # no other copy of the entry freezes the heap
    assert sum(p.read_text(encoding="utf-8").count("gc.freeze(")
               for p in (ROOT / "src" / "ncspec").glob("*.py")) == 1
