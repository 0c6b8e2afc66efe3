"""Seeded inputs, job lists and output checks of the four workloads.

Every job runs one computation and checks its output; a wrong answer
raises ``Mismatch``.  The seed only drives the random cochains, the
twists and alpha, and the coefficients of the cup-product cocycles; the
job lists themselves are fixed, so a pass does the same work on every
seed.

Expected values come from theory where one is stated in a comment
(universal coefficients, cup products in H^*((Z/2)^k; F2), the Sylow
restriction for S3), and otherwise were recorded at the commit that
introduced the benchmark.
"""

import json
import os
import random
from itertools import permutations, product

from zerocohom import catalog
from zerocohom.abgroups import FinAbGroup
from zerocohom.brauer import brauer_monoid
from zerocohom.cohomology import (
    Cochain,
    brute_cohomology,
    coboundary,
    cohomology_group,
    nerve,
    random_cochain,
    witness_report,
)
from zerocohom.errors import CapExceeded
from zerocohom.modules import trivial_module
from zerocohom.natsys import from_zero_module, hom_complex_compare, natsys_cohomology
from zerocohom.partial import build_t_semigroup
from zerocohom.schur import (
    FactorSet,
    brute_multiplier,
    equivalent,
    multipliers_agree,
    schur_multiplier,
    twist,
)
from zerocohom.semigroups import adjoin

C2, C3, C6, Z = FinAbGroup([2]), FinAbGroup([3]), FinAbGroup([6]), FinAbGroup([0])


class Mismatch(Exception):
    """A job produced a wrong answer."""


def expect(label, got, want):
    if got != want:
        raise Mismatch(f"{label}: got {got!r}, expected {want!r}")


# ---------------------------------------------------------------------------
# inputs


class Inputs:
    """Everything a pass needs, built from the seed before timing starts."""


PROP3 = "gens: x y; rels: xy=y, xx=xxx; zeros: yx, yy"
EX3 = {
    "elements": ["u", "v", "w", "0"],
    "zero": "0",
    "table": [["w", "w", "0", "0"], ["w", "w", "0", "0"], ["0", "0", "0", "0"], ["0", "0", "0", "0"]],
}
# ex3 with an identity adjoined: schur and natsys need a monoid
EX3_MONOID = {
    "elements": ["u", "v", "w", "0", "1"],
    "zero": "0",
    "table": [
        ["w", "w", "0", "0", "u"],
        ["w", "w", "0", "0", "v"],
        ["0", "0", "0", "0", "w"],
        ["0", "0", "0", "0", "0"],
        ["u", "v", "w", "0", "1"],
    ],
}


def _cup_e8(c):
    """Degree-2 cocycle sum_{i<=j} c_ij x_i y_j on (Z/2)^3, indexed like E8.

    The monomials x_i x_j (i <= j) form a basis of H^2((Z/2)^3; F2), so
    the class is zero exactly when every c_ij is zero.
    """
    bits = list(product(range(2), repeat=3))  # index order of elementary_abelian_8
    pairs = [(i, j) for i in range(3) for j in range(i, 3)]
    return {
        (x, y): (sum(cij * bits[x][i] * bits[y][j] for cij, (i, j) in zip(c, pairs)) % 2,)
        for x in range(8)
        for y in range(8)
    }


def _sign_cube_s3():
    """The degree-3 cocycle s(g)s(h)s(k), s = parity, on S3.

    It is the pull-back of x^3 in H^3(C2; F2) along the sign map; its
    restriction to a Sylow 2-subgroup is x^3 != 0, so it is not a
    coboundary.
    """
    perms = sorted(permutations(range(3)))  # index order of symmetric_group_3
    odd = [sum(p[i] > p[j] for i in range(3) for j in range(i + 1, 3)) % 2 for p in perms]
    return {t: (odd[t[0]] * odd[t[1]] * odd[t[2]],) for t in product(range(6), repeat=3)}


def _add_mod2(f, g):
    return Cochain(f.degree, {t: ((f.values[t][0] + g.values[t][0]) % 2,) for t in f.values})


def _nonzero_bits(rng, k):
    while True:
        c = tuple(rng.randrange(2) for _ in range(k))
        if any(c):
            return c


def make_inputs(seed, workdir):
    """Build every input from the seed; writes the CLI input files to workdir."""
    rng = random.Random(seed)
    x = Inputs()
    x.T = build_t_semigroup().semigroup
    x.E8 = adjoin(catalog.elementary_abelian_8(), "zero")
    x.S3 = adjoin(catalog.symmetric_group_3(), "zero")
    x.V4 = adjoin(catalog.klein_four(), "zero")
    x.Z3 = adjoin(catalog.cyclic_group(3), "zero")
    x.V4_00 = adjoin(x.V4, "zero")
    x.mitchell_1 = adjoin(catalog.mitchell_quotient(), "identity")
    x.monoids = [S for n in (1, 2, 3) for S in catalog.monoids_of_order(n)]

    # witness_report inputs: random coboundaries and witness + coboundary
    M3 = trivial_module(x.S3, C2)
    cube = Cochain(3, _sign_cube_s3())
    x.s3_coboundary = coboundary(M3, random_cochain(rng, x.S3, M3, 2))
    x.s3_witness = _add_mod2(cube, coboundary(M3, random_cochain(rng, x.S3, M3, 2)))
    M8 = trivial_module(x.E8, C2)
    x.e8_coboundary = coboundary(M8, random_cochain(rng, x.E8, M8, 1))
    x.e8_witness = _add_mod2(
        Cochain(2, _cup_e8(_nonzero_bits(rng, 6))), coboundary(M8, random_cochain(rng, x.E8, M8, 1))
    )

    # schur.equivalent inputs: factor sets on E8 with support ideal {0}
    c = _nonzero_bits(rng, 6)
    c_other = c
    while c_other == c:
        c_other = _nonzero_bits(rng, 6)
    x.twists = []
    for cls, same in ((c, True), (c_other, False), (c, True), (c_other, False)):
        alpha = {s: (rng.randrange(2),) for s in range(8)}
        alpha[x.E8.zero] = (0,)
        x.twists.append((_factor_set(x.E8, c), twist(_factor_set(x.E8, cls), alpha), same))

    os.makedirs(workdir, exist_ok=True)
    for name, text in (
        ("prop3.txt", PROP3),
        ("ex3.json", json.dumps(EX3)),
        ("ex3m.json", json.dumps(EX3_MONOID)),
        ("triv-z2.json", json.dumps({"invariant_factors": [2]})),
    ):
        with open(os.path.join(workdir, name), "w") as fh:
            fh.write(text)
    x.workdir = workdir
    return x


def _factor_set(E8, c):
    cup = _cup_e8(c)
    z = E8.zero
    values = {(a, b): None if z in (a, b) else cup[(a, b)] for a in range(9) for b in range(9)}
    return FactorSet(E8, C2, values)


# ---------------------------------------------------------------------------
# cohom: a few large complexes through cohomology_group


def _group_with_certified_witnesses(S, A, n):
    """H^n(S; A) whose witness cocycles have unit coordinates."""
    M = trivial_module(S, A)
    H = cohomology_group(S, M, n, "zero")
    k = len(H.witnesses)
    for i, w in enumerate(H.witnesses):
        expect(f"coords of witness {i}", H.coords(w, S, M), tuple(int(i == j) for j in range(k)))
    return H.group.invariants()


def cohom_jobs(x):
    def s3_c6():
        # UCT: Ext(H_1(S3) = C2, C6) = C2 and H_2(S3) = 0
        expect("H^2(S3^0; C6)", _group_with_certified_witnesses(x.S3, C6, 2), (2,))

    def e8_z():
        # H^2(G; Z) = Hom(G, Q/Z) = C2^3 for G = (Z/2)^3
        expect("H^2(E8^0; Z)", _group_with_certified_witnesses(x.E8, Z, 2), (2, 2, 2))

    def v4_c2():
        # dim H^2((Z/2)^2; F2) = 3
        expect("H^2(V4^0; C2)", _group_with_certified_witnesses(x.V4, C2, 2), (2, 2, 2))

    def s3_c2_natsys():
        # UCT gives C2; the natural-system complex of the same 0-module must agree
        fast = _group_with_certified_witnesses(x.S3, C2, 2)
        expect("H^2(S3^0; C2)", fast, (2,))
        D = from_zero_module(trivial_module(x.S3, C2))
        expect("natsys H^2(S3^0; C2)", natsys_cohomology(x.S3, D, 2).invariants(), fast)

    def v4_compare():
        rep = hom_complex_compare(x.V4, from_zero_module(trivial_module(x.V4, C2)), 2)
        expect("hom_complex_compare(V4^0, 2) ok", rep["ok"], True)

    def t_z():
        expect("H^1(T; Z)", _group_with_certified_witnesses(x.T, Z, 1), ())

    return [
        ("S3^0 H^2 C6", s3_c6),
        ("E8^0 H^2 Z", e8_z),
        ("V4^0 H^2 C2", v4_c2),
        ("S3^0 H^2 C2 + natsys", s3_c2_natsys),
        ("V4^0 hom_complex_compare", v4_compare),
        ("T H^1 Z", t_z),
    ]


# ---------------------------------------------------------------------------
# semilattice: many tiny complexes plus link coords


def _semilattice_job(build, want_counts):
    def job():
        sl = build()
        expect("links compose", sl.check_links_compose(), None)
        counts = {}
        for k in sl.indices:
            inv = sl.components[k].invariants()
            counts[inv] = counts.get(inv, 0) + 1
        expect("component invariants", counts, want_counts)

    return job


def semilattice_jobs(x):
    return [
        # 56 modifications of Z/5, all components trivial (recorded)
        ("brauer(2,5)", _semilattice_job(lambda: brauer_monoid(2, 5), {(): 56})),
        # 14 modifications of Z/4, one component C3 (recorded)
        ("brauer(2,4)", _semilattice_job(lambda: brauer_monoid(2, 4), {(): 13, (3,): 1})),
        # the component at {0} is H^2(V4; C2) = C2^3
        ("schur (V4^0)^0 C2", _semilattice_job(lambda: schur_multiplier(x.V4_00, C2), {(): 3, (2, 2, 2): 1})),
        # 19 ideals; H_0^2 of the Mitchell quotient vanishes
        ("schur mitchell+1 C2", _semilattice_job(lambda: schur_multiplier(x.mitchell_1, C2), {(): 19})),
    ]


# ---------------------------------------------------------------------------
# certify: brute twins, witness reports and equivalence queries


def certify_jobs(x):
    jobs = []
    pairs = [(S, C2) for S in x.monoids] + [(S, C3) for S in x.monoids if S.order <= 2]
    pairs.append((next(S for S in x.monoids if S.order == 3), C3))
    for i, (S, A) in enumerate(pairs):
        def multiplier(S=S, A=A):
            rep = multipliers_agree(schur_multiplier(S, A), brute_multiplier(S, A))
            expect("fast multiplier == brute multiplier", rep["ok"], True)

        jobs.append((f"multiplier #{i} |S|={S.order} {A}", multiplier))

    for label, S, n in (("Z3^0 H^2 C2", x.Z3, 2), ("V4^0 H^1 C2", x.V4, 1)):
        def brute(S=S, n=n, label=label):
            M = trivial_module(S, C2)
            fast = cohomology_group(S, M, n, "zero").group.invariants()
            expect(label + " brute", brute_cohomology(S, M, n, "zero").invariants(), fast)

        jobs.append((f"brute {label}", brute))

    for label, S, f, want in (
        ("S3^0 deg 3 coboundary", x.S3, x.s3_coboundary, True),
        ("S3^0 deg 3 witness", x.S3, x.s3_witness, False),
        ("E8^0 deg 2 coboundary", x.E8, x.e8_coboundary, True),
        ("E8^0 deg 2 witness", x.E8, x.e8_witness, False),
    ):
        def report(S=S, f=f, want=want, label=label):
            rep = witness_report(S, trivial_module(S, C2), f, "zero")
            expect(label + " is_cocycle", rep["is_cocycle"], True)
            expect(label + " is_coboundary", rep["is_coboundary"], want)

        jobs.append((f"witness_report {label}", report))

    for i, (rho, sigma, same) in enumerate(x.twists):
        def equiv(rho=rho, sigma=sigma, same=same):
            ok, alpha = equivalent(rho, sigma)
            expect("equivalent", ok, same)
            if ok:
                expect("twist(sigma, alpha) == rho", twist(sigma, alpha), rho)

        jobs.append((f"equivalent #{i}", equiv))
    return jobs


# ---------------------------------------------------------------------------
# cli: sequential zerocohom processes


def _cli_checks(w):
    r = lambda d: d["result"]
    inv = lambda d: r(d)["group"]["invariant_factors"]
    return [
        (["tsemigroup"], lambda d: (r(d)["order"], r(d)["unit_group_order"]), (25, 6)),
        (["enumerate", "--presentation", f"{w}/prop3.txt", "--bound", "10"], lambda d: r(d)["order"], 4),
        (
            ["gown", "--presentation", f"{w}/prop3.txt"],
            lambda d: r(d)["gown_presentation"],
            "gens: x y; rels: xy=y, xx=xxx",
        ),
        (["tsubsets", "--group", "Z2^3"], lambda d: r(d)["count"], 459),
        (["modifications", "--group", "Z5"], lambda d: r(d)["count"], 56),
        (
            ["cohom", "--semigroup", f"{w}/ex3.json", "--module", f"{w}/triv-z2.json", "--degree", "2"],
            inv,
            [2, 2],
        ),
        (
            ["oracle", "cohom", "--semigroup", f"{w}/ex3.json", "--module", f"{w}/triv-z2.json", "--degree", "2"],
            lambda d: (inv(d), r(d)["oracle_match"]),
            ([2, 2], True),
        ),
        (
            ["schur", "--semigroup", f"{w}/ex3m.json", "--module", f"{w}/triv-z2.json"],
            lambda d: (r(d)["component_count"], r(d)["links_compose"]),
            (7, True),
        ),
        (
            ["natsys", "--semigroup", f"{w}/ex3m.json", "--module", f"{w}/triv-z2.json", "--degree", "2"],
            inv,
            [2, 2],
        ),
        (
            ["brauer", "--q", "2", "--n", "5"],
            lambda d: (r(d)["component_count"], r(d)["links_compose"]),
            (56, True),
        ),
    ]


def cli_jobs(x, ctx):
    """One job per zerocohom process; stdout must repeat byte for byte."""
    jobs = []
    for argv, view, want in _cli_checks(os.path.relpath(x.workdir, ctx.root)):
        def run(argv=argv, view=view, want=want):
            out = ctx.run_cli(argv)
            first = ctx.cli_stdout.setdefault(tuple(argv), out)
            expect("stdout byte-stable across passes", out == first, True)
            expect(" ".join(argv[:2]), view(json.loads(out)), want)

        jobs.append(("zerocohom " + " ".join(argv[:2]), run))
    return jobs


WORKLOADS = {
    "cohom": lambda x, ctx: cohom_jobs(x),
    "semilattice": lambda x, ctx: semilattice_jobs(x),
    "certify": lambda x, ctx: certify_jobs(x),
    "cli": cli_jobs,
}


# ---------------------------------------------------------------------------
# frontier probe


def frontier_probe(x):
    """Attempt the paper's full-size objects once; a tripped cap is an outcome.

    Returns a list of (object, requested size, outcome) triples.
    """
    rows, cols = len(nerve(x.T, 3)), len(nerve(x.T, 2))
    attempts = (
        ("H_0^2(T; C2)", f"{rows}x{cols} coboundary matrix", lambda: cohomology_group(x.T, trivial_module(x.T, C2), 2)),
        ("schur_multiplier(T, C2)", f"|T| = {x.T.order}", lambda: schur_multiplier(x.T, C2)),
    )
    out = []
    for name, size, attempt in attempts:
        try:
            result = attempt()
        except CapExceeded as exc:
            out.append((name, size, f"cap exceeded: {exc}"))
        else:
            out.append((name, size, f"finished: {getattr(result, 'group', result)}"))
    return out
