"""JSON document schemas and DOT rendering.

Documents carry a `schema` version field and reject every key that their
kind does not read (see `KEYS`); rational scalars travel as exact strings
like "3/4".
"""

from . import rings as rg
from .errors import ParseError, SchemaViolation, parse_int, parse_rational
from .rings import (
    MatrixRing,
    ModularRing,
    PrimeField,
    Rationals,
    RingElement,
    RingHom,
    SemisimpleAlgebra,
    ZeroRing,
)

RING_SCHEMA = "ncspec.ring/1"
MORPHISM_SCHEMA = "ncspec.morphism/1"
MODULE_SCHEMA = "ncspec.module/1"
GLUE_SCHEMA = "ncspec.glue/1"
QCOH_SCHEMA = "ncspec.qcoh/1"
REPORT_SCHEMA = "ncspec.report/1"

# The keys each document reads besides its schema, "?" marking an optional
# one.  A ring or rule document reads "kind" and the keys of its kind.
KEYS = {
    "ring": {"zero": "", "modular": "n", "product": "factors", "matrix": "base size",
             "semisimple": "base dims", "poly": "", "skew_laurent": "nvars lambda inverted?"},
    "rule": {"identity": "", "to_zero": "", "canonical_quotient": "", "table": "pairs"},
    "morphism": "source target rule",
    "module": "generators relations?",
    "generator": "degree",
    "qcoh": "ring module scalars box?",
    "glue": "pieces overlaps isos",
    "overlap": "from to subset",
    "iso": "from to rule",
}


def _shape(doc, path, name, schema=None):
    """The kind of the `name` document doc, or None, after checking that doc
    is an object that carries `schema` (when given), every key its row of
    KEYS requires and no key the row does not list; anything else is a
    SchemaViolation at path."""
    where = path or "."
    if not isinstance(doc, dict):
        raise SchemaViolation(f"expected an object at {where}", path)
    if schema and doc.get("schema", schema) != schema:
        raise SchemaViolation(f"expected schema {schema}", path)
    keys, kind = KEYS[name], doc.get("kind")
    if isinstance(keys, dict):
        if "kind" in doc and not (isinstance(kind, str) and kind in keys):
            raise SchemaViolation(f"unknown {name} kind {kind!r}", path)
        keys = "kind " + keys.get(kind, "")
    keys = (["schema"] if schema else []) + keys.split()
    missing = {k for k in keys if k[-1] != "?"} - set(doc)
    if missing:
        raise SchemaViolation(f"missing fields {sorted(missing)} at {where}", path)
    unknown = set(doc) - {k.rstrip("?") for k in keys}
    if unknown:
        raise SchemaViolation(f"unknown fields {sorted(unknown)} at {where}", path)
    return kind


def parse_list(v, path="") -> list:
    """A JSON list; anything else is a SchemaViolation at path."""
    if not isinstance(v, list):
        raise SchemaViolation(f"expected a list at {path or '.'}", path)
    return v


def rational_str(q) -> str:
    """An int or a Fraction as the exact string that `parse_rational` reads."""
    return str(q)


def _parse_base(v, path):
    if v == "q":
        return Rationals()
    if isinstance(v, str) and v.startswith("f") and v[1:].isdigit():
        return _built(PrimeField, path, int(v[1:]))
    raise SchemaViolation(f"base must be 'q' or 'f<prime>', got {v!r}", path)


def _built(make, path, *args):
    """make(*args), with the ValueError of a limit it checks as a
    SchemaViolation at path, so the limit and its message stay in `rings`."""
    try:
        return make(*args)
    except ValueError as exc:
        raise SchemaViolation(str(exc), path)


def _int_at_least(v, low, message, path) -> int:
    """An exact integer >= low; anything else is a SchemaViolation at
    path, with message for an integer below low.  For the limits whose
    entry no ring error can name (`dims[i]`, and `nvars`, which the
    `lambda` entries are checked against)."""
    k = parse_int(v, path)
    if k < low:
        raise SchemaViolation(message, path)
    return k


def parse_ring(doc, path="ring", *, top=True):
    """The ring of a ring document.  A bad value is a SchemaViolation at
    its key (`ring.n`, `ring.dims[1]`, `ring.lambda[0]`, ...); what no
    one key holds, as an empty product or a missing commutation scalar,
    is one at the ring's path."""
    kind = _shape(doc, path, "ring", RING_SCHEMA if top else None)
    try:
        if kind == "zero":
            return ZeroRing()
        if kind == "modular":
            return _built(ModularRing, f"{path}.n", parse_int(doc["n"], f"{path}.n"))
        if kind == "product":
            factors = parse_list(doc["factors"], f"{path}.factors")
            return rg.product_ring([parse_ring(f, f"{path}.factors[{i}]", top=False)
                                    for i, f in enumerate(factors)])
        if kind == "matrix":
            return _built(MatrixRing, f"{path}.size", _parse_base(doc["base"], f"{path}.base"),
                          parse_int(doc["size"], f"{path}.size"))
        if kind == "semisimple":
            dims = parse_list(doc["dims"], f"{path}.dims")
            return SemisimpleAlgebra(_parse_base(doc["base"], f"{path}.base"), tuple(
                _int_at_least(d, 1, "block sizes must be >= 1", f"{path}.dims[{i}]")
                for i, d in enumerate(dims)))
        if kind == "poly":
            from .qpoly import UnivariatePolyRing
            return UnivariatePolyRing()
        from .skewpoly import skew_ring
        nvars = _int_at_least(doc["nvars"], 2, "skew rings need at least two variables",
                              f"{path}.nvars")
        lam = {}
        for k, triple in enumerate(parse_list(doc["lambda"], f"{path}.lambda")):
            at = f"{path}.lambda[{k}]"
            if not isinstance(triple, (list, tuple)) or len(triple) != 3:
                raise SchemaViolation("lambda entries are [i, j, value]", at)
            i, j = parse_int(triple[0], at) - 1, parse_int(triple[1], at) - 1
            if not 0 <= i < j < nvars:
                raise SchemaViolation(
                    f"commutation scalar index ({i}, {j}) outside 0 <= i < j < {nvars}", at)
            if (i, j) in lam:
                raise SchemaViolation(f"lambda lists the pair ({i}, {j}) twice", at)
            value = parse_rational(triple[2], at)
            if value == 0:
                raise SchemaViolation(f"zero commutation scalar for ({i}, {j})", at)
            lam[(i, j)] = value
        inverted = []
        for k, v in enumerate(parse_list(doc.get("inverted", []), f"{path}.inverted")):
            at = f"{path}.inverted[{k}]"
            i = parse_int(v, at) - 1
            if not 0 <= i < nvars:
                raise SchemaViolation("inverted index out of range", at)
            if i in inverted:
                raise SchemaViolation(f"inverted lists the variable {i} twice", at)
            inverted.append(i)
        return skew_ring(nvars, lam, inverted)
    except (TypeError, ValueError) as exc:
        raise SchemaViolation(f"bad ring document: {exc}", path)


def parse_inner_ring(doc, path):
    """A ring document inside another one, with or without its schema field."""
    return parse_ring(doc, path, top=isinstance(doc, dict) and "schema" in doc)


def parse_element(r, doc, path="element") -> RingElement:
    """The element of r that doc writes, read by r (`rings.Descriptor.read`);
    a bad coefficient is a SchemaViolation at its entry (`[i][j]` of a
    matrix, `[i]` of a polynomial or a skew term)."""
    return RingElement(r, rg.read_payload(r, doc, path))


def element_doc(x: RingElement):
    """The document of x, which its descriptor writes (`rings.Descriptor.write`)."""
    return x.owner.write(x.payload)


def parse_morphism(doc, path="morphism") -> RingHom:
    _shape(doc, path, "morphism", MORPHISM_SCHEMA)
    source = parse_inner_ring(doc["source"], f"{path}.source")
    target = parse_inner_ring(doc["target"], f"{path}.target")
    return _parse_rule(doc["rule"], source, target, f"{path}.rule")


def _parse_rule(doc, source, target, path, iso=False) -> RingHom:
    """The validated hom source -> target of a rule document; a glue iso
    reads identity and table rules, and a table lists every element of the
    source once."""
    kind = _shape(doc, path, "rule")
    if iso and kind not in ("identity", "table"):
        raise SchemaViolation(f"a glue iso has no {kind} rule", path)
    if kind == "canonical_quotient":
        moduli = [rg.cyclic_moduli(x) or () for x in (source, target)]
        if [len(m) for m in moduli] != [1, 1]:
            raise SchemaViolation("canonical_quotient needs modular rings", path)
        return rg.quotient_hom(moduli[0][0], moduli[1][0])
    if kind != "table":
        rule = rg.IdentityRule() if kind == "identity" else rg.ToZeroRule()
        return rg.hom_validate(RingHom(source, target, rule))
    mapping = {}
    for i, pair in enumerate(parse_list(doc["pairs"], f"{path}.pairs")):
        if len(parse_list(pair, f"{path}.pairs[{i}]")) != 2:
            raise SchemaViolation("table pairs are [source, target]", f"{path}.pairs[{i}]")
        src = parse_element(source, pair[0], f"{path}.pairs[{i}][0]")
        if src in mapping:
            raise SchemaViolation(f"a table rule lists {src!r} twice", f"{path}.pairs[{i}]")
        mapping[src] = parse_element(target, pair[1], f"{path}.pairs[{i}][1]")
    if len(mapping) != rg.cardinality(source):
        raise SchemaViolation(f"a table rule must list every element of {source!r}", path)
    return rg.hom_validate(rg.table_hom(source, target, mapping))


def parse_graded_module(r, doc, path="module"):
    from .skewproj import presentation_from_rows
    _shape(doc, path, "module", MODULE_SCHEMA)
    degrees = []
    for i, g in enumerate(parse_list(doc["generators"], f"{path}.generators")):
        _shape(g, f"{path}.generators[{i}]", "generator")
        degrees.append(parse_int(g["degree"], f"{path}.generators[{i}].degree"))
    rows = []
    try:
        for i, row in enumerate(doc.get("relations", [])):
            if len(row) != len(degrees):
                raise SchemaViolation("relation row width mismatch", f"{path}.relations[{i}]")
            rows.append([r.read_terms(entry, f"{path}.relations[{i}][{j}]")
                         for j, entry in enumerate(row)])
    except (TypeError, ValueError) as exc:
        raise SchemaViolation(f"bad relation: {exc}", f"{path}.relations")
    return presentation_from_rows(r, degrees, rows)


def parse_qcoh(doc, path="qcoh"):
    """(ring, module, scalars, box) of a quasicoherent datum on a skew
    Laurent chart cover: the scalars {(i, j): value} of its 1-based chart
    pairs [i, j, value], read with 0-based indices."""
    _shape(doc, path, "qcoh", QCOH_SCHEMA)
    r = parse_inner_ring(doc["ring"], f"{path}.ring")
    if doc["ring"]["kind"] != "skew_laurent":
        raise ParseError("qcoh-check expects a skew Laurent chart cover")
    M = parse_graded_module(r, doc["module"], f"{path}.module")
    scalars = {}
    for k, triple in enumerate(parse_list(doc["scalars"], f"{path}.scalars")):
        at = f"{path}.scalars[{k}]"
        if not isinstance(triple, list) or len(triple) != 3:
            raise SchemaViolation("scalars entries are [i, j, value]", at)
        i, j = (parse_int(v, at) for v in triple[:2])
        if not (1 <= i <= r.nvars and 1 <= j <= r.nvars):
            raise SchemaViolation(f"chart index outside 1..{r.nvars}: [{i}, {j}]", at)
        scalars[(i - 1, j - 1)] = parse_rational(triple[2], at)
    box = parse_int(doc.get("box", 2), f"{path}.box")
    if box < 0:
        raise SchemaViolation("box must be a non-negative integer", f"{path}.box")
    return r, M, scalars, box


def parse_glue(doc, path="glue"):
    from .glueqcoh import GlueDatum
    from .localization import localize
    _shape(doc, path, "glue", GLUE_SCHEMA)
    pieces = tuple(parse_ring(p, f"{path}.pieces[{i}]", top=False)
                   for i, p in enumerate(parse_list(doc["pieces"], f"{path}.pieces")))
    overlaps = {}
    for i, ov in enumerate(parse_list(doc["overlaps"], f"{path}.overlaps")):
        at = f"{path}.overlaps[{i}]"
        _shape(ov, at, "overlap")
        a, b = (_piece_index(ov, key, pieces, at) for key in ("from", "to"))
        overlaps[(a, b)] = tuple(
            parse_element(pieces[a], e, f"{at}.subset[{k}]")
            for k, e in enumerate(parse_list(ov["subset"], f"{at}.subset")))
    isos = {}
    for i, iso in enumerate(parse_list(doc["isos"], f"{path}.isos")):
        at = f"{path}.isos[{i}]"
        _shape(iso, at, "iso")
        a, b = (_piece_index(iso, key, pieces, at) for key in ("from", "to"))
        for pair in ((a, b), (b, a)):
            if pair not in overlaps:
                raise SchemaViolation(f"iso {a} -> {b} needs an overlap {pair}", at)
        La = localize(pieces[a], overlaps[(a, b)])
        Lb = localize(pieces[b], overlaps[(b, a)])
        isos[(a, b)] = _parse_rule(iso["rule"], La.result, Lb.result, f"{at}.rule", iso=True)
    for a, b in overlaps:
        if a != b and (a, b) not in isos:
            raise SchemaViolation(f"overlap ({a}, {b}) has no iso", f"{path}.isos")
    return GlueDatum(pieces, overlaps, isos)


def _piece_index(doc, key, pieces, path) -> int:
    i = parse_int(doc[key], f"{path}.{key}")
    if not 0 <= i < len(pieces):
        raise SchemaViolation(f"no piece {i}: the glue has {len(pieces)}", f"{path}.{key}")
    return i


# ---------------------------------------------------------------------------
# DOT rendering

def digraph(name, prefix, labels, edges) -> str:
    """A DOT digraph, drawn bottom to top, with nodes prefix0, prefix1, ...
    carrying `labels` and the edges (i, j)."""
    lines = [f"digraph {name} {{", "  rankdir=BT;"]
    lines += [f'  {prefix}{i} [label="{label}"];' for i, label in enumerate(labels)]
    lines += [f"  {prefix}{i} -> {prefix}{j};" for i, j in edges]
    return "\n".join(lines + ["}"]) + "\n"


def semilattice_dot(lat) -> str:
    return digraph("semilattice", "n", [cell.label for cell in lat.cells], lat.hasse_edges())


def space_dot(sp) -> str:
    """Specialization order of the points, generic on top."""
    labels = [cell.label + (" (generic)" if i == sp.generic else "")
              for i, cell in enumerate(sp.lattice.cells)]
    return digraph("space", "p", labels, sorted(sp.space.hasse_edges()))


def glued_dot(gl) -> str:
    labels = [",".join(f"{a}:{p}" for a, p in sorted(members)) for members in gl.classes]
    return digraph("glued", "c", labels, gl.space.hasse_edges())
