"""The fixed input pool, the jobs each workload draws from it, and the
output oracle.

Every job's expected report (status and payload) was recorded at the
commit that added the benchmark into `expected.json`; `independent_problems`
adds checks that hold by mathematics rather than by that recording.
"""

import json
import random
from dataclasses import dataclass
from math import comb

RING = "ncspec.ring/1"


def _ring(**body):
    return {"schema": RING, **body}


def _skew(nvars, lam):
    return _ring(kind="skew_laurent", nvars=nvars, inverted=[],
                 **{"lambda": [[i, j, str(v)] for (i, j), v in lam.items()]})


def _quotient(n, m):
    return {"schema": "ncspec.morphism/1",
            "source": {"kind": "modular", "n": n},
            "target": {"kind": "modular", "n": m},
            "rule": {"kind": "canonical_quotient"}}


def _body(doc):
    return {k: v for k, v in doc.items() if k != "schema"}


_SK2 = _skew(2, {(1, 2): 2})
_SK3 = _skew(3, {(1, 2): 2, (1, 3): 3, (2, 3): 5})
_SK4 = _skew(4, {(i, j): 2 for i in range(1, 5) for j in range(i + 1, 5)})
_ZERO_2X2 = [[0, 0], [0, 0]]
_QCOH_FREE = {"schema": "ncspec.module/1", "generators": [{"degree": 0}]}


def _trivial_qcoh(ring):
    """The free module with every cocycle scalar 1: a valid datum."""
    n = ring["nvars"]
    return {"schema": "ncspec.qcoh/1", "ring": _body(ring), "module": _QCOH_FREE,
            "scalars": [[i, j, "1"] for i in range(1, n + 1) for j in range(1, n + 1)
                        if i != j]}

# input name -> document; the name is also the document's file stem
DOCS = {
    "Z6": _ring(kind="modular", n=6),
    "Z12": _ring(kind="modular", n=12),
    "Z30": _ring(kind="modular", n=30),
    "Z60": _ring(kind="modular", n=60),
    "F2^4": _ring(kind="product", factors=[{"kind": "modular", "n": 2}] * 4),
    "SSA-F2-1-2": _ring(kind="semisimple", base="f2", dims=[1, 2]),
    "SSA-Q-2-3": _ring(kind="semisimple", base="q", dims=[2, 3]),
    "M2-F2": _ring(kind="matrix", base="f2", size=2),
    "Z6-Z3": _quotient(6, 3),
    "Z30-Z6": _quotient(30, 6),
    "M2-F2-2chart": {
        "schema": "ncspec.glue/1",
        "pieces": [{"kind": "matrix", "base": "f2", "size": 2}] * 2,
        "overlaps": [{"from": 0, "to": 1, "subset": [_ZERO_2X2]},
                     {"from": 1, "to": 0, "subset": [_ZERO_2X2]}],
        "isos": [{"from": 0, "to": 1, "rule": {"kind": "identity"}},
                 {"from": 1, "to": 0, "rule": {"kind": "identity"}}],
    },
    "SK2": _SK2,
    "SK3": _SK3,
    "SK4": _SK4,
    # the ideal (x, y) of SK2: two degree-1 generators and their skew syzygy
    "SK2-ideal-module": {
        "schema": "ncspec.module/1",
        "generators": [{"degree": 1}, {"degree": 1}],
        "relations": [[[[[0, 1], "1"]], [[[1, 0], "-1/2"]]]],
    },
    # R + R/(x, y): the second summand is torsion, so the unit map has a
    # torsion kernel in degree 0 and serre-check calls is_torsion
    "SK2-torsion-module": {
        "schema": "ncspec.module/1",
        "generators": [{"degree": 0}, {"degree": 0}],
        "relations": [[[], [[[1, 0], "1"]]], [[], [[[0, 1], "1"]]]],
    },
    "SK2-qcoh": _trivial_qcoh(_SK2),
    # a cocycle scalar that breaks the inverse law: the expected answer is "fail"
    "SK2-qcoh-bad-scalar": {"schema": "ncspec.qcoh/1", "ring": _body(_SK2),
                            "module": _QCOH_FREE, "scalars": [[1, 2, "2"], [2, 1, "1"]]},
    "SK4-qcoh": _trivial_qcoh(_SK4),
}


@dataclass(frozen=True)
class Job:
    """One CLI call: `ncspec <sub> <flag> <doc> [extra...]`."""

    sub: str
    doc: str
    extra: tuple = ()
    module: str = None

    @property
    def key(self):
        parts = [self.sub, self.doc]
        if self.module:
            parts.append(f"module={self.module}")
        if self.extra:
            parts.append(" ".join(self.extra))
        return " ".join(parts)

    def argv(self, docdir):
        flag = {"morphism": "--morphism", "prim-check": "--morphism", "glue": "--glue",
                "qcoh-check": "--datum"}.get(self.sub, "--ring")
        out = [self.sub, flag, str(docdir / f"{self.doc}.json")]
        if self.module:
            out += ["--module", str(docdir / f"{self.module}.json")]
        return out + list(self.extra)


def _window(lo, hi):
    return ("--window", str(lo), str(hi))


FINITE_JOBS = tuple(
    [Job("ncspec", r) for r in ("Z6", "Z12", "Z30", "Z60", "F2^4", "SSA-F2-1-2",
                                "SSA-Q-2-3", "M2-F2")]
    + [Job("semilattice", r) for r in ("Z60", "F2^4", "SSA-F2-1-2")]
    + [Job("spec", r) for r in ("Z30", "Z60", "F2^4")]
    + [Job("embed", r) for r in ("Z12", "Z30")]
    + [Job("exp", r) for r in ("Z6", "Z30")]
    + [Job(sub, m) for sub in ("morphism", "prim-check") for m in ("Z6-Z3", "Z30-Z6")]
    + [Job("glue", "M2-F2-2chart")]
)

# Five cheap jobs, five of about the same middle cost and three heavy
# ones: the median falls inside the middle group, not on a cost cliff.
SKEW_JOBS = (
    Job("proj-gamma", "SK2", _window(0, 10)),
    Job("proj-gamma", "SK2", _window(0, 6), module="SK2-ideal-module"),
    Job("serre-check", "SK2", _window(0, 3), module="SK2-torsion-module"),
    Job("qcoh-check", "SK2-qcoh"),
    Job("qcoh-check", "SK2-qcoh-bad-scalar"),
    Job("proj-gamma", "SK2", _window(0, 30)),
    Job("proj-gamma", "SK3", _window(0, 5)),
    Job("proj-gamma", "SK4", _window(0, 1)),
    Job("serre-check", "SK3", _window(0, 4)),
    Job("serre-check", "SK4", _window(0, 1)),
    Job("proj-gamma", "SK3", _window(0, 6)),
    Job("proj-gamma", "SK4", _window(0, 3)),
    Job("qcoh-check", "SK4-qcoh"),
)

CLI_JOBS = {"cli-finite": FINITE_JOBS, "cli-skewproj": SKEW_JOBS}

# ROADMAP re-anchor baselines still in the pool; the per-job breakdown
# always lists them
BASELINE_KEYS = ("ncspec Z30", "ncspec Z60", "proj-gamma SK3 --window 0 6",
                 "proj-gamma SK4 --window 0 3")


def write_docs(docdir):
    docdir.mkdir(parents=True, exist_ok=True)
    for name, doc in DOCS.items():
        (docdir / f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")


def cli_pass(jobs, rng):
    """Every job of the pool once, in an order drawn from `rng`."""
    order = list(jobs)
    rng.shuffle(order)
    return order


# -- the warm session -------------------------------------------------------

SESSION_RINGS = (12, 30)
# enough subsets that a localize query costs about the same on every seed
LOCALIZE_SUBSETS = 24


def session_pass(rng):
    """One pass of the session's query stream, shuffled by `rng`.

    Per ring: sections over every open set, each quotient Z/n -> Z/m
    (induced morphism, verify, primness, recovery), the embedding, the
    exponential comparison, and localizations at a family of subsets of
    one or two elements drawn from `rng`, so that later passes repeat
    some subsets and hit the localization cache; on Z/12 also the qcoh
    round trip.
    """
    queries = []
    for n in SESSION_RINGS:
        queries += session_queries(n)
        queries.append(["localize", n, [sorted(rng.sample(range(n), rng.choice((1, 2))))
                                        for _ in range(LOCALIZE_SUBSETS)]])
    rng.shuffle(queries)
    return queries


def session_queries(n):
    """The queries of a pass on Z/n other than the seeded localization."""
    queries = [["sections", n]]
    queries += [["quotient", n, m] for m in range(2, n) if n % m == 0]
    queries += [["embed", n], ["expiso", n]]
    if n == 12:
        queries.append(["qcoh", 12, [12, 6]])
    return queries


def localize_universe(n):
    """Every subset a localize query can draw for Z/n."""
    return [[a] for a in range(n)] + [[a, b] for a in range(n) for b in range(a + 1, n)]


def query_key(q):
    """The key of a recorded answer; a localize query records one per subset."""
    return " ".join(str(x) for x in q)


def new_rng(seed, salt):
    return random.Random(f"{seed}:{salt}")


# -- the oracle ---------------------------------------------------------------

def omega(n):
    """Number of distinct prime divisors."""
    count, p = 0, 2
    while p * p <= n:
        if n % p == 0:
            count += 1
            while n % p == 0:
                n //= p
        p += 1
    return count + (n > 1)


def _ring_size_facts(name):
    """(points, primes) that hold for the commutative finite pool rings:
    Z/n has 2^omega(n) sober points and omega(n) primes, F2^k has 2^k
    points and k primes."""
    doc = DOCS[name]
    if doc.get("kind") == "modular":
        return 2 ** omega(doc["n"]), omega(doc["n"])
    if doc.get("kind") == "product":
        k = len(doc["factors"])
        return 2 ** k, k
    return None, None


def independent_problems(job, report):
    """Checks on a CLI report that do not depend on the recorded answers."""
    problems = []
    payload, status = report.get("payload", {}), report.get("status")
    points, primes = _ring_size_facts(job.doc) if job.doc in DOCS else (None, None)
    if job.sub == "ncspec" and points is not None and payload.get("points") != points:
        problems.append(f"expected {points} sober points, got {payload.get('points')}")
    if job.sub == "spec" and primes is not None and len(payload.get("primes", ())) != primes:
        problems.append(f"expected {primes} primes")
    if job.sub in ("embed", "exp", "serre-check") and status != "pass":
        problems.append(f"{job.sub} reported {status!r}, expected 'pass'")
    if job.sub == "qcoh-check":
        want = "fail" if job.doc.endswith("bad-scalar") else "pass"
        if status != want:
            problems.append(f"qcoh-check reported {status!r}, expected {want!r}")
    if job.sub == "proj-gamma" and job.module is None:
        nvars = DOCS[job.doc]["nvars"]
        lo, hi = int(job.extra[1]), int(job.extra[2])
        want = {str(d): comb(d + nvars - 1, nvars - 1) for d in range(lo, hi + 1)}
        if payload.get("dims") != want:
            problems.append("free-module dims differ from C(d+n-1, n-1)")
    return problems


def session_problems(q, result):
    """Checks on a session answer that do not depend on the recorded answers:
    sections over the empty open are the zero ring, over the whole space
    (the last open) the ring itself."""
    kind = q[0]
    if kind == "quotient" and result != {"verified": True, "prim": True, "recovered": True}:
        return ["quotient morphism not verified, prim and recovered"]
    if kind in ("embed", "expiso", "qcoh") and result.get("status") != "pass":
        return [f"{kind} reported {result.get('status')!r}"]
    if kind == "sections" and (result[0] != "0-ring" or result[-1] != f"Z/{q[1]}"):
        return ["sections over the empty open or the whole space are wrong"]
    return []
