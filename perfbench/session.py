"""The warm library session: one long-lived process answering queries.

Run as `python session.py [--trace]` with `src` on PYTHONPATH.  After the
warm-up (import, then `ncspec(Z/n)` for the session rings) it writes one
JSON line `{"ready": ..., "imported": ...}` (`time.monotonic()` values);
then, for each JSON query line on stdin, it runs the library call, times
it in-process and writes `{"elapsed": s, "result": ...}`.  An empty line
ends the session; with
`--trace` the last line written is the trace dump.
"""

import json
import sys
import time

import ncspec.cli  # noqa: F401  (the import a CLI user pays, as in set-up)

T_IMPORTED = time.monotonic()

from pool import SESSION_RINGS  # noqa: E402


def _answer(lib, spaces, q):
    rg, sh, cb, loc, gq = lib
    kind, n = q[0], q[1]
    r = rg.ModularRing(n)
    if kind == "sections":
        sp, opens = spaces[n]
        return [repr(sh.sections(sp, U)) for U in opens]
    if kind == "quotient":
        theta = rg.quotient_hom(n, q[2])
        m = sh.ncspec_morphism(theta)
        return {"verified": m.verify(), "prim": sh.is_prim_report(m)["prim"],
                "recovered": sh.recover_hom(m) == theta}
    if kind == "embed":
        emb = cb.embed_phi(r)
        return {"status": emb.report["status"],
                "point_map": {str(k): v for k, v in sorted(emb.point_map.items())}}
    if kind == "expiso":
        iso = cb.spec_exponential_iso(r)
        return {"status": iso["status"], "exponential_points": iso["exponential_points"],
                "sober_points": iso["sober_points"]}
    if kind == "localize":
        return [repr(loc.localize(r, tuple(rg.element(r, a) for a in subset)).result)
                for subset in q[2]]
    if kind == "qcoh":
        return gq.qcoh_roundtrip(r, gq.FiniteModule(r, tuple(q[2])))
    raise ValueError(f"unknown query {q!r}")


def main():
    rec = None
    if "--trace" in sys.argv[1:]:
        import layers
        rec = layers.install(layers.Recorder())
    # look the modules up after tracing is installed, so calls go through it
    from ncspec import commbridge, glueqcoh, localization, rings, sheafspec
    lib = (rings, sheafspec, commbridge, localization, glueqcoh)
    spaces = {}
    for n in SESSION_RINGS:
        sp = sheafspec.ncspec(rings.ModularRing(n))
        spaces[n] = (sp, sp.all_opens())
    if rec is not None:
        rec.reset()
    out = sys.stdout
    out.write(json.dumps({"ready": time.monotonic(), "imported": T_IMPORTED}) + "\n")
    out.flush()
    for i, line in enumerate(sys.stdin):
        if not line.strip():
            break
        q = json.loads(line)
        if rec is not None:
            rec.job = i
        t0 = time.perf_counter()
        result = _answer(lib, spaces, q)
        elapsed = time.perf_counter() - t0
        out.write(json.dumps({"elapsed": elapsed, "result": result}) + "\n")
        out.flush()
    if rec is not None:
        out.write(json.dumps(rec.dump()) + "\n")
        out.flush()


if __name__ == "__main__":
    main()
