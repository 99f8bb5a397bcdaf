"""Command-line interface: parse documents, dispatch, report.

    ncspec <subcommand> <input flag> <path> [options] [--format json|dot|text]

Reports are JSON with a fixed field order; exit status 0 means every
asserted check in the run passed, 1 that a check failed or was
inconclusive, and 2 that a document was rejected (the report names the
error).

Each subcommand takes the options of its row of `SUBCOMMANDS`.  An
option takes its values as the next tokens, or one value as
`--opt=value`; a unique prefix of an option names it; a repeated option
keeps its last value; a negative number is a value, and any other token
that starts with `-` is an option.  A bad command line writes a usage
line and the error to stderr, nothing to stdout, and exits 2.
"""

import json
import sys
from types import SimpleNamespace

from . import rings as rg
from . import serialize as ser
from .errors import NCSpecError, ParseError, SchemaViolation


def _load(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")


def _report(args, status, payload, provenance=None):
    return {
        "schema": ser.REPORT_SCHEMA,
        "subcommand": args.subcommand,
        "status": status,
        "provenance": provenance or {},
        "payload": payload,
    }


def _no_rendering(args):
    return ParseError(f"{args.subcommand} has no {args.format} rendering "
                      f"for this input; use --format json")


def _emit(args, status, payload, provenance=None, dot=None, text=None):
    """Write the report of the call in the requested format; `main` has
    checked that the subcommand renders it, and a lazy Q[x] report raises
    ParseError."""
    if args.format == "json":
        out = json.dumps(_report(args, status, payload, provenance), indent=2) + "\n"
    else:
        out = dot if args.format == "dot" else text
        if out is None:
            raise _no_rendering(args)
    sys.stdout.write(out)
    return 0 if status == "pass" else 1


def cmd_ring_validate(args):
    r = ser.parse_ring(_load(args.ring))
    payload = {
        "ring": repr(r),
        "finite": rg.is_finite(r),
        "cardinality": rg.cardinality(r),
        "commutative": rg.is_commutative(r),
    }
    return _emit(args, "pass", payload)


def cmd_semilattice(args):
    from .latspace import PidLattice, build_semilattice
    r = ser.parse_ring(_load(args.ring))
    lat = build_semilattice(r)
    if isinstance(lat, PidLattice):
        payload = {"ring": repr(r), "lazy": True,
                   "note": "order answered by squarefree divisibility"}
        return _emit(args, "pass", payload)
    payload = {
        "ring": repr(r),
        "cells": [c.label for c in lat.cells],
        "bottom": lat.bottom,
        "top": lat.top,
        "order": [[lat.leq(i, j) for j in range(lat.n)] for i in range(lat.n)],
        "joins": [[lat.join(i, j) for j in range(lat.n)] for i in range(lat.n)],
    }
    text = "cells: " + ", ".join(payload["cells"]) + "\n"
    return _emit(args, "pass", payload, dot=ser.semilattice_dot(lat), text=text)


def cmd_ncspec(args):
    from .sheafspec import PidNCSpec, ncspec
    r = ser.parse_ring(_load(args.ring))
    sp = ncspec(r)
    if isinstance(sp, PidNCSpec):
        payload = {"ring": repr(r), "lazy": True,
                   "note": "points are sets of monic irreducibles plus the zero ideal"}
        return _emit(args, "pass", payload)
    payload = {
        "ring": repr(r),
        "points": sp.point_count(),
        "generic": sp.generic,
        "cells": [c.label for c in sp.lattice.cells],
        "sections_on_basics": [repr(d) for d in sp.sheaf.assignment],
        "specialization": [sorted(sp.space.up[i]) for i in range(sp.space.n)],
    }
    text = f"points: {payload['points']}, generic: {payload['generic']}\n"
    return _emit(args, "pass", payload, dot=ser.space_dot(sp), text=text)


def cmd_morphism(args):
    from .sheafspec import ncspec_morphism, recover_hom
    theta = ser.parse_morphism(_load(args.morphism))
    m = ncspec_morphism(theta)
    ok = m.verify()
    payload = {
        "source_ring": repr(theta.target),
        "target_ring": repr(theta.source),
        "point_map": {str(k): v for k, v in sorted(m.point_map.items())},
        "verified": ok,
        "recovered_equals_input": recover_hom(m) == theta,
    }
    status = "pass" if ok and payload["recovered_equals_input"] else "fail"
    return _emit(args, status, payload)


def cmd_prim_check(args):
    from .sheafspec import is_prim_report, ncspec_morphism
    theta = ser.parse_morphism(_load(args.morphism))
    m = ncspec_morphism(theta)
    rep = is_prim_report(m)
    return _emit(args, "pass" if rep["prim"] else "fail", rep)


def cmd_spec(args):
    from .commbridge import spec
    r = ser.parse_ring(_load(args.ring))
    s = spec(r)
    payload = {
        "ring": repr(r),
        "primes": [[ser.element_doc(x) for x in sorted(P, key=repr)] for P in s.primes],
        "distinguished_base": {
            str(ser.element_doc(f)): sorted(s.distinguished(f)) for f in s.elements},
    }
    return _emit(args, "pass", payload)


def cmd_embed(args):
    from .commbridge import embed_phi
    r = ser.parse_ring(_load(args.ring))
    emb = embed_phi(r)
    payload = {
        "ring": repr(r),
        "point_map": {str(k): v for k, v in sorted(emb.point_map.items())},
        "checks": emb.report["checks"],
    }
    return _emit(args, emb.report["status"], payload)


def cmd_exp(args):
    from .commbridge import exp_idempotence_check, spec, spec_exponential_iso
    r = ser.parse_ring(_load(args.ring))
    iso = spec_exponential_iso(r)
    idem = exp_idempotence_check(spec(r).based_space())
    status = "pass" if iso["status"] == "pass" and idem else "fail"
    payload = {
        "ring": repr(r),
        "exponential_points": iso["exponential_points"],
        "sober_points": iso["sober_points"],
        "isomorphism": iso["status"] == "pass",
        "idempotence": idem,
    }
    return _emit(args, status, payload)


def cmd_glue(args):
    from .glueqcoh import glue
    datum = ser.parse_glue(_load(args.glue))
    gl = glue(datum)
    payload = {
        "pieces": [repr(p) for p in datum.pieces],
        "points": gl.space.n,
        "sections": [repr(d) for d in gl.sections],
        "order": [sorted(up) for up in gl.space.up],
    }
    return _emit(args, "pass", payload, dot=ser.glued_dot(gl))


def cmd_qcoh_check(args):
    from .skewproj import SkewQcohDatum, build_proj, qcoh_cocycle_check
    r, M, scalars, box = ser.parse_qcoh(_load(args.datum))
    X = build_proj(r)
    rep = qcoh_cocycle_check(SkewQcohDatum(X, M, scalars, box=box))
    payload = {"failures": rep["failures"], "charts": X.n}
    return _emit(args, rep["status"], payload, provenance={"box": box})


def _proj_inputs(args):
    """The window, the skew ring, its module (free by default) and the Proj
    cover of a `proj-gamma` or `serre-check` call.  The --window pair and
    the bounds are checked first, then the documents are read."""
    from .skewproj import build_proj, free_presentation
    lo, hi = args.window
    if lo > hi:
        raise ParseError(f"--window {lo} {hi}: the low degree exceeds the high one")
    if args.box < 0:
        raise ParseError(f"--box {args.box}: the truncation depth must be >= 0")
    if getattr(args, "torsion_bound", 1) < 1:
        raise ParseError(f"--torsion-bound {args.torsion_bound}: the bound must be >= 1")
    r = ser.parse_ring(_load(args.ring))
    if not isinstance(r, rg.SkewLaurentRing):
        raise ParseError(f"{args.subcommand} expects a skew Laurent ring")
    M = ser.parse_graded_module(r, _load(args.module)) if args.module else free_presentation(r)
    return (lo, hi), r, M, build_proj(r)


def cmd_proj_gamma(args):
    from .skewproj import gamma
    window, r, M, X = _proj_inputs(args)
    g = gamma(X, M, window, box=args.box)
    dims = {str(d): g["dims"][d] for d in sorted(g["dims"])}
    # the chart cocycle identities hold on every ring (see `build_proj`)
    payload = {"ring": repr(r), "dims": dims, "psi_cocycles": "pass"}
    text = "\n".join(f"{d:>4}  {v}" for d, v in dims.items()) + "\n"
    # the sections are one step deeper than the box: saturation depth 1
    return _emit(args, "pass", payload,
                 provenance={"window": args.window, "box": args.box, "k_max": 1},
                 text=text)


def cmd_serre_check(args):
    from .skewproj import serre_unit
    window, r, M, X = _proj_inputs(args)
    rep = serre_unit(X, M, window, box=args.box, torsion_bound=args.torsion_bound)
    degrees = {}
    ok = True
    for d, info in rep["degrees"].items():
        degrees[str(d)] = {k: info[k] for k in (
            "module_dim", "sections_dim", "injective", "surjective",
            "kernel_dim", "kernel_torsion", "cokernel_dim", "cokernel_torsion")}
        if not info["kernel_torsion"]:
            ok = False
        if info["cokernel_dim"] and info["cokernel_torsion"] is None:
            ok = None if ok is True else ok
    status = "pass" if ok is True else ("inconclusive" if ok is None else "fail")
    payload = {"ring": repr(r), "degrees": degrees}
    return _emit(args, status, payload,
                 provenance={"window": args.window, "box": args.box,
                             "torsion_bound": args.torsion_bound})


# an option: flag, number of values, their type (int, str, or a tuple of
# the allowed values), default, required
_WINDOW = (("--module", 1, str, None, False),
           ("--window", 2, int, None, True),
           ("--box", 1, int, 2, False))
_FORMAT = ("--format", 1, ("json", "dot", "text"), "json", False)

# name, input flag, further options in the order of their help, the
# formats besides json that the subcommand renders, handler
SUBCOMMANDS = (
    ("ring-validate", "--ring", (), (), cmd_ring_validate),
    ("semilattice", "--ring", (), ("dot", "text"), cmd_semilattice),
    ("ncspec", "--ring", (), ("dot", "text"), cmd_ncspec),
    ("morphism", "--morphism", (), (), cmd_morphism),
    ("prim-check", "--morphism", (), (), cmd_prim_check),
    ("spec", "--ring", (), (), cmd_spec),
    ("embed", "--ring", (), (), cmd_embed),
    ("exp", "--ring", (), (), cmd_exp),
    ("glue", "--glue", (), ("dot",), cmd_glue),
    ("qcoh-check", "--datum", (), (), cmd_qcoh_check),
    ("proj-gamma", "--ring", _WINDOW, ("text",), cmd_proj_gamma),
    ("serre-check", "--ring", _WINDOW + (("--torsion-bound", 1, int, 3, False),),
     (), cmd_serre_check),
)


def _dest(flag):
    return flag[2:].replace("-", "_")


def _usage_part(option):
    """`--flag META...` of an option: the dest in capitals, or the allowed
    values in braces."""
    flag, arity, kind, _default, _required = option
    meta = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else _dest(flag).upper()
    return " ".join((flag,) + (meta,) * arity)


def _is_flag(token):
    """Whether a token names an option: it starts with `-` and is not a
    negative number."""
    return token[:1] == "-" and not token[1:].isdecimal()


def _exit(usage, prog, message):
    sys.stderr.write(f"{usage}\n{prog}: error: {message}\n")
    sys.exit(2)


def _help(usage, options):
    lines = [usage, "", "options:", "  -h, --help"]
    for option in options:
        note = "  (required)" if option[4] else (
            "" if option[3] is None else f"  (default {option[3]})")
        lines.append(f"  {_usage_part(option)}{note}")
    sys.stdout.write("\n".join(lines) + "\n")
    sys.exit(0)


def _value(prog, usage, option, token):
    flag, _arity, kind, _default, _required = option
    if isinstance(kind, tuple):
        if token not in kind:
            _exit(usage, prog, f"argument {flag}: invalid choice: {token!r} "
                               f"(choose from {', '.join(map(repr, kind))})")
        return token
    try:
        return kind(token)
    except ValueError:
        _exit(usage, prog, f"argument {flag}: invalid int value: {token!r}")


def parse_args(argv):
    """The parsed command line: `subcommand`, `format`, `formats`, `fn` and
    each option of the subcommand's row under its dest name.  `-h` writes
    the help to stdout and exits 0; a bad command line writes the usage
    line and the error to stderr and exits 2."""
    rows = {row[0]: row for row in SUBCOMMANDS}
    top = "usage: ncspec [-h] {" + ",".join(rows) + "} ..."
    head = argv[0] if argv else None
    if head in ("-h", "--help"):
        sys.stdout.write(f"{top}\n\n{__doc__}")
        sys.exit(0)
    if head is None:
        _exit(top, "ncspec", "the following arguments are required: subcommand")
    if head not in rows:
        if _is_flag(head):
            _exit(top, "ncspec", f"unrecognized arguments: {head}")
        _exit(top, "ncspec", f"argument subcommand: invalid choice: {head!r} "
                             f"(choose from {', '.join(map(repr, rows))})")
    name, flag, options, renders, fn = rows[head]
    options = ((flag, 1, str, None, True),) + options + (_FORMAT,)
    prog = f"ncspec {name}"
    usage = f"usage: {prog} [-h] " + " ".join(
        part if option[4] else f"[{part}]"
        for option, part in zip(options, map(_usage_part, options)))
    args = SimpleNamespace(subcommand=name, formats=("json",) + renders, fn=fn)
    for option in options:
        setattr(args, _dest(option[0]), option[3])
    given = set()
    i = 1
    while i < len(argv):
        token = argv[i]
        i += 1
        if not _is_flag(token):
            _exit(usage, prog, f"unrecognized arguments: {token}")
        key, eq, inline = token.partition("=")
        if key == "-h" or (len(key) > 2 and "--help".startswith(key)):
            _help(usage, options)
        # the flag itself, or else the one flag that the key begins
        matches = ([o for o in options if o[0] == key]
                   or [o for o in options if len(key) > 2 and o[0].startswith(key)])
        if len(matches) != 1:
            _exit(usage, prog, f"unrecognized arguments: {token}")
        option = matches[0]
        arity = option[1]
        if eq:
            values = [inline]
        else:
            values = argv[i:i + arity]
            i += arity
        if len(values) != arity or (not eq and any(map(_is_flag, values))):
            _exit(usage, prog, f"argument {option[0]}: expected "
                  + ("one argument" if arity == 1 else f"{arity} arguments"))
        values = [_value(prog, usage, option, v) for v in values]
        setattr(args, _dest(option[0]), values[0] if arity == 1 else values)
        given.add(option[0])
    missing = [o[0] for o in options if o[4] and o[0] not in given]
    if missing:
        _exit(usage, prog, f"the following arguments are required: {', '.join(missing)}")
    return args


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    try:
        if args.format not in args.formats:
            raise _no_rendering(args)
        return args.fn(args)
    except NCSpecError as exc:
        payload = {"error": type(exc).__name__, "message": str(exc)}
        if isinstance(exc, SchemaViolation) and exc.path:
            payload["path"] = exc.path
        sys.stdout.write(json.dumps(_report(args, "fail", payload), indent=2) + "\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
