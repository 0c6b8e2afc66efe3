import random
from itertools import product

import pytest

from zerocohom import catalog, cohomology, modules, natsys
from zerocohom.abgroups import FinAbGroup, IntMatrix
from zerocohom.brauer import brauer_monoid
from zerocohom.cohomology import (
    Nerve,
    brute_cohomology,
    coboundary_preimage,
    cohomology_group,
    nerve,
    witness_report,
    zero_cochain,
)
from zerocohom.errors import CapExceeded, DegreeMismatch, FunctorialityError, InvalidModule, NotMonoidWithZero
from zerocohom.modules import ZeroModule, scalar_module, trivial_bimodule, trivial_module, validate_module
from zerocohom.natsys import (
    FacCategory,
    NaturalSystem,
    _verify_category,
    bar_exactness_report,
    bar_resolution,
    fac_category,
    from_zero_module,
    hom_complex_compare,
    natsys_coboundary_hom,
    natsys_cohomology,
    natural_system,
    trivial_Z,
    validate_natural_system,
)
from zerocohom.partial import build_t_semigroup
from zerocohom.presentations import enumerate_presentation, parse_presentation
from zerocohom.schur import epsilon_factor_set, equivalent, schur_multiplier, twist
from zerocohom.semigroups import adjoin


def one_zero_monoid():
    # {1, 0}: the trivial group with a zero adjoined
    return adjoin(catalog.cyclic_group(1), "zero")


def small_monoids_with_zero():
    out = []
    S1 = enumerate_presentation(parse_presentation("gens: a; zeros: aa"), 8, "monoid").semigroup
    S2 = adjoin(catalog.cyclic_group(2), "zero")
    S3 = adjoin(catalog.two_chain_monoid(), "zero")
    return [S1, S2, S3]


def test_one_zero_monoid_shape():
    S = one_zero_monoid()
    assert S.order == 2 and S.is_monoid and S.has_zero


def test_fac_category_object_and_morphisms():
    S = adjoin(catalog.nil_square_semigroup(), "identity")
    cat = fac_category(S)
    assert len(cat.objects) == S.order - 1
    z = S.zero
    for alpha, a, beta in cat.morphisms:
        assert S.mul(S.mul(alpha, a), beta) != z
    with pytest.raises(NotMonoidWithZero):
        fac_category(catalog.cyclic_group(2))


def test_fac_category_missing_identity_raises():
    S = adjoin(catalog.nil_square_semigroup(), "identity")
    cat = fac_category(S)
    u = S.index("u")
    e = S.identity
    broken = FacCategory(S, cat.objects, tuple(m for m in cat.morphisms if m != (e, u, e)))
    with pytest.raises(FunctorialityError) as info:
        _verify_category(broken)
    assert info.value.witness == ("missing-identity", u)


def test_identity_that_is_the_zero_is_rejected():
    # in {0} the identity is the zero: degree-0 cochains would sit on an
    # element that is not an object
    S = catalog.cyclic_group(1)
    assert S.identity == S.zero
    for call in (
        lambda: natsys_cohomology(S, trivial_Z(S), 0),
        lambda: hom_complex_compare(S, from_zero_module(trivial_module(S, FinAbGroup([2]))), 1),
    ):
        with pytest.raises(NotMonoidWithZero, match="the identity is the zero"):
            call()


def test_trivial_Z_and_from_zero_module():
    S = adjoin(catalog.nil_square_semigroup(), "identity")
    D = trivial_Z(S)
    for a in S.nonzero():
        assert D.group(a).factors == (0,)
    M = trivial_module(S, FinAbGroup([2]))
    D2 = from_zero_module(M)
    assert validate_natural_system(D2) is None
    # alpha_* beta^* a = alpha a
    u = S.index("u")
    target = D2.group(S.mul(u, u))
    assert target.reduce(D2.morphism_matrix(u, u, S.identity).vec([1])) == (1,)


def test_from_zero_module_with_action():
    S = adjoin(catalog.two_chain_monoid(), "zero")
    e = S.index("e")
    M = scalar_module(S, FinAbGroup([4]), {S.identity: 1, e: 3})
    # 3*3 = 9 = 1 mod 4... e*e = e needs 3*3 = 3: fails; use scalar 0 instead
    M = scalar_module(S, FinAbGroup([4]), {S.identity: 1, e: 0})
    assert validate_module(M) is None
    D = from_zero_module(M)
    assert validate_natural_system(D) is None


def test_broken_natural_system_raises():
    S = one_zero_monoid()
    one = IntMatrix.identity(1)
    two = IntMatrix(1, 1, [[2]])
    e = S.identity
    groups = {e: FinAbGroup([0])}
    # D(1,1) must be identity-like; breaking left functoriality:
    with pytest.raises(FunctorialityError):
        natural_system(S, groups, {(e, e): two}, {(e, e): one})


def _c2_zero_system(left_g, right_g, rank=1):
    """The natural system on C2^0 over (Z/3)^rank with g acting by left_g and right_g, unchecked."""
    S = adjoin(catalog.cyclic_group(2), "zero")
    A = FinAbGroup([3] * rank)
    on_left = from_zero_module(ZeroModule(S, A, {0: IntMatrix.identity(rank), 1: left_g}))
    on_right = from_zero_module(ZeroModule(S, A, {0: IntMatrix.identity(rank), 1: right_g}))
    # in a group with zero alpha * a != 0 iff a * alpha != 0, so the left keys are the right ones
    return NaturalSystem(S, on_left.groups, on_left.left, on_right.left)


ONE, MINUS, WIDE = IntMatrix(1, 1, [[1]]), IntMatrix(1, 1, [[-1]]), IntMatrix.identity(2)
SWAP, SIGN = IntMatrix(2, 2, [[0, 1], [1, 0]]), IntMatrix(2, 2, [[1, 0], [0, -1]])


@pytest.mark.parametrize(
    "kind, store, key, value, witness",
    [
        ("missing-group", "groups", 1, None, 1),
        ("left-hom", "left", (1, 0), WIDE, (1, 0)),
        ("right-hom", "right", (1, 0), WIDE, (1, 0)),
        ("left-compose", "left", (1, 0), MINUS, (1, 1, 0)),
        ("right-compose", "right", (1, 0), MINUS, (1, 1, 0)),
        ("left-missing", "left", (1, 0), None, (1, 0)),
        ("right-missing", "right", (1, 0), None, (1, 0)),
    ],
)
def test_validate_natural_system_names_each_broken_law(kind, store, key, value, witness):
    # C2^0 = {1, g, 0} has indices 0, 1, 2; the trivial system is valid until
    # one entry is dropped (value None) or replaced
    D = _c2_zero_system(ONE, ONE)
    assert validate_natural_system(D) is None
    table = getattr(D, store)
    if value is None:
        del table[key]
    else:
        table[key] = value
    assert validate_natural_system(D) == (kind, witness)


def test_natural_system_without_maps_is_refused():
    # g acts on both sides, so a system with no stored map is refused with
    # a witness, not with the KeyError of the map lookup
    S = adjoin(catalog.cyclic_group(2), "zero")
    with pytest.raises(FunctorialityError) as exc:
        natural_system(S, {a: FinAbGroup([3]) for a in S.nonzero()}, {}, {})
    assert exc.value.witness == ("left-missing", (1, 0))


def test_validate_natural_system_names_a_square_that_fails():
    # g swaps the coordinates on the left and negates the second on the
    # right: each side is functorial, but the two do not commute
    D = _c2_zero_system(SWAP, SIGN, rank=2)
    assert validate_natural_system(D) == ("square", (1, 0, 1))


@pytest.mark.parametrize("side", ["left", "right"])
def test_from_zero_module_refuses_a_non_unital_module(side):
    # everything acting by 0 is a valid 0-module, but the identity does not act as the identity
    S = adjoin(catalog.cyclic_group(2), "zero")
    A = FinAbGroup([3])
    ones, zeros = scalar_module(S, A, {0: 1, 1: 1}).action, scalar_module(S, A, {0: 0, 1: 0}).action
    M = ZeroModule(S, A, zeros) if side == "left" else ZeroModule(S, A, ones, zeros)
    assert validate_module(M) is None
    with pytest.raises(FunctorialityError) as exc:
        from_zero_module(M)
    assert exc.value.witness == ("identity-map", (S.identity, S.nonzero()[0]))


def test_from_zero_module_refuses_a_module_without_a_nonzero_element():
    S = adjoin(catalog.cyclic_group(2), "zero")
    with pytest.raises(InvalidModule) as exc:
        from_zero_module(ZeroModule(S, FinAbGroup([3]), {S.identity: IntMatrix.identity(1)}))
    assert exc.value.witness == [1]


def _unital_scalar_actions(S, A):
    """Every valid scalar action of S (on its nonzero part) over A in which the identity acts by 1."""
    others = [s for s in S.nonzero() if s != S.identity]
    for scalars in product(range(A.factors[0]), repeat=len(others)):
        M = scalar_module(S, A, {S.identity: 1, **dict(zip(others, scalars))})
        if validate_module(M) is None:
            yield M.action


def test_from_zero_module_builds_valid_systems_on_small_monoids():
    # the module check stands in for validate_natural_system, which stays the reference
    A = FinAbGroup([3])
    for n in (1, 2, 3):
        for T in catalog.monoids_of_order(n):
            S = adjoin(T, "zero")
            actions = list(_unital_scalar_actions(S, A))
            modules_ = [trivial_module(S, A), trivial_bimodule(S, A)]
            modules_ += [ZeroModule(S, A, a) for a in actions]
            modules_ += [ZeroModule(S, A, a, b) for a in actions for b in actions]
            for M in modules_:
                if validate_module(M) is None:
                    assert validate_natural_system(from_zero_module(M)) is None, (T.elements, M)


_WRONG_SHAPE_IDENTITY = """
from zerocohom import catalog
from zerocohom.abgroups import IntMatrix
from zerocohom.errors import FunctorialityError
from zerocohom.natsys import natural_system, trivial_Z
from zerocohom.semigroups import adjoin

S = adjoin(catalog.cyclic_group(2), "zero")
D = trivial_Z(S)
e = S.identity
a = S.nonzero()[0]
left = dict(D.left)
left[(e, a)] = IntMatrix.identity(2)  # a 2x2 identity on a rank-1 object
try:
    natural_system(S, D.groups, left, D.right)
except FunctorialityError as exc:
    print(exc.witness == ("identity-map", (e, a)))
"""


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_wrong_shape_identity_map_is_reported(flags, run_python):
    # the identity-map check compares shapes before entries, so a stored
    # identity of the wrong size is a witness, not an AssertionError (or
    # an IndexError under python -O)
    proc = run_python(*flags, "-c", _WRONG_SHAPE_IDENTITY)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "True"


def test_natsys_cohomology_point():
    S = one_zero_monoid()
    D = trivial_Z(S)
    assert natsys_cohomology(S, D, 0).invariants() == (0,)
    assert natsys_cohomology(S, D, 1).invariants() == ()
    assert natsys_cohomology(S, D, 2).invariants() == ()


def test_natsys_matches_zero_cohomology():
    # the bridge: H^n(S, from_zero_module(A)) = H_0^n(S, A), the right side
    # by the cochain-enumerating oracle, which shares no matrix code
    for S in small_monoids_with_zero():
        for factors in ((2,), (4,), (2, 2)):
            M = trivial_module(S, FinAbGroup(factors))
            D = from_zero_module(M)
            for n in (0, 1, 2):
                left = natsys_cohomology(S, D, n).invariants()
                right = brute_cohomology(S, M, n, "zero").invariants()
                assert left == right, (S.elements, factors, n)
    # and with a nontrivial action
    S = adjoin(catalog.cyclic_group(2), "zero")
    M = scalar_module(S, FinAbGroup([3]), {0: 1, 1: -1})
    assert validate_module(M) is None
    D = from_zero_module(M)
    for n in (0, 1, 2):
        assert natsys_cohomology(S, D, n).invariants() == brute_cohomology(S, M, n, "zero").invariants()


def test_natsys_reads_the_right_action():
    # C2^0 over Z, the generator acting by -1 on the right: D(1, g) is
    # that action, so the natural system has the module's cohomology
    S = adjoin(catalog.cyclic_group(2), "zero")
    one, g = S.identity, S.index("g")
    M = ZeroModule(S, FinAbGroup([0]), {one: IntMatrix.identity(1), g: IntMatrix.identity(1)},
                   {one: IntMatrix.identity(1), g: IntMatrix(1, 1, [[-1]])})
    D = from_zero_module(M)
    assert D.right_map(g, one) == IntMatrix(1, 1, [[-1]])
    groups = [cohomology_group(S, M, n).group.invariants() for n in (0, 1, 2)]
    assert groups == [(), (2,), ()]
    assert [natsys_cohomology(S, D, n).invariants() for n in (0, 1, 2)] == groups
    report = hom_complex_compare(S, D, 2)
    assert report["ok"] and report["groups"] == groups


def test_delta_delta_zero_randomized():
    rng = random.Random(23)
    mons = small_monoids_with_zero()
    count = 0
    for _ in range(110):
        S = rng.choice(mons)
        M = trivial_module(S, FinAbGroup(rng.choice([(2,), (4,), (3,)])))
        D = from_zero_module(M)
        n = rng.choice([0, 1])
        N = Nerve(S)
        d_n = natsys_coboundary_hom(N, D, n)
        d_next = natsys_coboundary_hom(N, D, n + 1)
        comp = d_next.compose(d_n)
        for j in range(comp.source.rank):
            e = [1 if i == j else 0 for i in range(comp.source.rank)]
            assert not any(comp.apply(e))
        count += 1
    assert count >= 100


def test_baues_compatibility_via_groups():
    # for a group G, the pipeline on G^0 gives classical EM-cohomology
    for G in (catalog.cyclic_group(2), catalog.cyclic_group(3)):
        S = adjoin(G, "zero")
        M = trivial_module(S, FinAbGroup([2]))
        D = from_zero_module(M)
        MG = trivial_module(G, FinAbGroup([2]))
        for n in (1, 2):
            assert (
                natsys_cohomology(S, D, n).invariants()
                == cohomology_group(G, MG, n, "em").group.invariants()
            )


def test_bar_rank_one_zero_monoid():
    S = one_zero_monoid()
    e = S.identity
    N = Nerve(S)
    bar_resolution(N, 0)
    assert N.level(2) == [(e, e)]  # only (1, 1)


@pytest.mark.parametrize(
    "entry",
    [lambda S, n: bar_resolution(Nerve(S), n), bar_exactness_report],
    ids=["bar_resolution", "bar_exactness_report"],
)
def test_bar_negative_degree(entry):
    S = one_zero_monoid()
    with pytest.raises(DegreeMismatch, match="negative degree"):
        entry(S, -1)


def test_bar_dd_zero_nil_square_with_identity():
    S = adjoin(catalog.nil_square_semigroup(), "identity")
    bar_resolution(Nerve(S), 2)  # raises on any dd != 0 or naturality failure


def test_bar_resolution_dd_check_survives_optimize(run_python):
    # under python -O: one corrupted entry of a face map must still raise
    # NotAComplex, so the check cannot rest on an assert.  The faces of B_2
    # grow from those of B_1, so the first symbol whose identities fail lies
    # over u
    script = """
import zerocohom.cohomology as co
import zerocohom.natsys as ns
from zerocohom import catalog
from zerocohom.errors import NotAComplex
from zerocohom.semigroups import adjoin

real = co.Nerve._face_rows

def corrupt(N, m):
    rows = real(N, m)
    if m == 3:  # the faces of B_1: send d_0 [1 | 1 | 1] elsewhere
        p = N.level(3).index((N.semigroup.identity,) * 3)
        rows[1][p] = (rows[1][p] + 1) % len(N.level(2))
    return rows

co.Nerve._face_rows = corrupt
S = adjoin(catalog.nil_square_semigroup(), "identity")
try:
    ns.bar_resolution(co.Nerve(S), 2)
except NotAComplex as exc:
    print("NotAComplex", exc.witness == (2, S.index("u")))
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "NotAComplex True"


# (piece, level, error, witness tail): one wrong cell of ``slots`` or
# ``rslots``, which B(alpha, 1), B(1, beta) and the faces above are read
# from; level 3's slots give the faces of B_2, level 4's B(alpha, 1) on B_2
SLOT_MUTATIONS = [
    ("slots", 3, "NotAComplex", "(2, e)"),
    ("slots", 4, "FunctorialityError", "(2, e, 'left', e)"),
    ("rslots", 3, "FunctorialityError", "(1, e, 'right', u)"),
]


@pytest.mark.parametrize("piece, level, error, witness", SLOT_MUTATIONS, ids=[f"{m[0]}-{m[1]}" for m in SLOT_MUTATIONS])
def test_bar_resolution_sees_a_wrong_slot_under_optimize(run_python, piece, level, error, witness):
    # under python -O: a slot sent to the next tuple, for [1 | .. | 1] in
    # slots and for [1 | .. | 1 | u] in rslots, must raise, so the checks
    # cannot rest on an assert
    script = f"""
import zerocohom.cohomology as co
import zerocohom.natsys as ns
from zerocohom import catalog
from zerocohom.errors import FunctorialityError, NotAComplex
from zerocohom.semigroups import adjoin

S = adjoin(catalog.nil_square_semigroup(), "identity")
e, u = S.identity, S.index("u")
real = co.Nerve.{piece}

def corrupt(N, m):
    out = real(N, m)
    if m == {level}:
        lower, ones = N.level(m - 1), (e,) * (m - 1)
        if "{piece}" == "slots":
            k, t = e * len(lower) + lower.index(ones), ones + (e,)
        else:
            k, t = lower.index(ones) * S.order + u, ones + (u,)
        out[k] = (N.level(m).index(t) + 1) % len(N.level(m))
    return out

co.Nerve.{piece} = corrupt
try:
    ns.bar_resolution(co.Nerve(S), 2)
except (NotAComplex, FunctorialityError) as exc:
    print(type(exc).__name__, exc.witness == {witness})
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"{error} True"


def test_comparison_sees_a_block_read_as_the_identity_under_optimize(run_python):
    # under python -O: the coboundary assembly adds a face as +-1 only when
    # every block is the identity; read the generator's -1 as the identity
    # and the comparison with the bar side must fail
    script = """
import zerocohom.cohomology as co
from zerocohom import catalog
from zerocohom.abgroups import FinAbGroup
from zerocohom.modules import scalar_module
from zerocohom.natsys import from_zero_module, hom_complex_compare
from zerocohom.semigroups import adjoin

S = adjoin(catalog.cyclic_group(2), "zero")
D = from_zero_module(scalar_module(S, FinAbGroup([3]), {0: 1, 1: -1}))
for _ in range(2):
    rep = hom_complex_compare(S, D, 2)
    print(rep["naturality"], rep["differentials"], rep["ok"])
    co._is_identity = lambda block: True
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True", "True", "True", "True", "False", "False"]


def test_bar_degree_above_the_cap_builds_no_level(monkeypatch):
    # B_n lives on level n + 2: the cap trips before any level is scanned
    grown = []
    real = cohomology.Nerve._split
    monkeypatch.setattr(cohomology.Nerve, "_split", lambda N, m: grown.append(m) or real(N, m))
    S = one_zero_monoid()
    N = Nerve(S)
    for call in (lambda: bar_resolution(N, 4), lambda: bar_exactness_report(S, 4)):
        with pytest.raises(CapExceeded, match="bar degree 4 exceeds cap 3"):
            call()
    assert grown == [] and N.pieces == {}
    assert bar_exactness_report(S, 3)  # the cap itself is admitted


def test_bar_resolution_naturality_check_survives_optimize(run_python):
    # under python -O: B(1, beta) permuted wrongly on one right generator
    # must still raise FunctorialityError, so the check cannot rest on an
    # assert
    script = """
import zerocohom.natsys as ns
from zerocohom import catalog
from zerocohom.errors import FunctorialityError
from zerocohom.semigroups import adjoin

real = ns.bar_action
S = adjoin(catalog.nil_square_semigroup(), "identity")
beta = S.index("u")

def reversed_on_right(N, m, alpha, beta_):
    out = real(N, m, alpha, beta_)
    return out[::-1] if alpha == S.identity and beta_ == beta else out

ns.bar_action = reversed_on_right
try:
    ns.bar_resolution(ns.Nerve(S), 2)
except FunctorialityError as exc:
    print("FunctorialityError", exc.witness[2:] == ("right", beta))
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "FunctorialityError True"


def test_bar_resolution_checks_right_naturality(monkeypatch):
    # B(1, beta) permuted wrongly, B(alpha, 1) left intact: only the
    # right-hand naturality check can see it
    S = adjoin(catalog.nil_square_semigroup(), "identity")
    real = natsys.bar_action

    def wrong_on_right(N, m, alpha, beta):
        out = real(N, m, alpha, beta)
        return out[::-1] if alpha == S.identity and beta != S.identity else out

    monkeypatch.setattr(natsys, "bar_action", wrong_on_right)
    with pytest.raises(FunctorialityError) as exc:
        bar_resolution(Nerve(S), 2)
    assert exc.value.witness[2] == "right"


def test_bar_resolution_matches_tuples():
    # every symbol lies over its product, and every bar face and action
    # entry is the position of the (n+2)-tuple it stands for
    for S in small_monoids_with_zero():
        N = Nerve(S)
        bar_resolution(N, 3)
        e, z = S.identity, S.zero
        for n in range(4):
            level, objects = N.level(n + 2), N.products(n + 2)
            assert level == nerve(S, n + 2)
            assert objects == [S.mul_word(s) for s in level]
            inner = N.faces(n + 2)[1:-1]  # the faces of B_n, for n >= 1
            assert len(inner) == n + 1
            for i, d in enumerate(inner):
                faces = [s[:i] + (S.mul(s[i], s[i + 1]),) + s[i + 2 :] for s in level]
                assert [N.level(n + 1)[q] for q in d] == faces
            for g in range(S.order):
                for alpha, beta in ((g, e), (e, g)):
                    act = natsys.bar_action(N, n + 2, alpha, beta)
                    images = [
                        (S.mul(alpha, s[0]),) + s[1:-1] + (S.mul(s[-1], beta),)
                        if S.mul(S.mul(alpha, a), beta) != z
                        else None
                        for s, a in zip(level, objects)
                    ]
                    assert [None if q < 0 else level[q] for q in act] == images


def _c2_calls():
    """Each entry point on C2^0 with C3 coefficients, by name (the generator acts by -1 where it can)."""
    S = adjoin(catalog.cyclic_group(2), "zero")
    M = scalar_module(S, FinAbGroup([3]), {0: 1, 1: -1})
    T, B = trivial_module(S, FinAbGroup([3])), trivial_bimodule(S, FinAbGroup([3]))
    f = zero_cochain(S, M, 2)  # built before the counting starts
    rho = epsilon_factor_set(S, FinAbGroup([3]), {S.zero})
    sigma = twist(rho, {s: (0 if s == S.zero else 1,) for s in range(S.order)})
    return {
        "cohomology_group-zero": lambda: cohomology_group(S, M, 2, "zero"),
        "cohomology_group-em": lambda: cohomology_group(S, T, 2, "em"),
        "cohomology_group-bimodule": lambda: cohomology_group(S, B, 2, "zero"),
        "natsys_cohomology": lambda: natsys_cohomology(S, from_zero_module(M), 2),
        "coboundary_preimage": lambda: coboundary_preimage(S, M, f),
        "witness_report": lambda: witness_report(S, M, f),
        "brute_cohomology": lambda: brute_cohomology(S, M, 2),
        # the trivial module of the quotient is valid by construction
        "equivalent": lambda: equivalent(rho, sigma),
        "hom_complex_compare": lambda: hom_complex_compare(S, from_zero_module(M), 2),
        # two ideals, and the five modifications of Z/3, each cut from one complex
        "schur_multiplier": lambda: schur_multiplier(S, FinAbGroup([3])),
        "brauer_monoid": lambda: brauer_monoid(2, 3),
    }


# the nerve levels Nerve scans (level 0 is the constant [()], never
# scanned) and face maps each entry point reads, and its validate_module
# calls; the faces of level m grow from those of level m - 1, so every
# level below the top one's faces is built too; the comparison reads
# B_0..B_2 (levels 2..4) only, never B_3; the certificates build their
# faces from tuples and read each level of one Nerve
BUILDS = {
    "cohomology_group-zero": ({1, 2, 3}, {1, 2, 3}, 1),
    "cohomology_group-em": ({1, 2, 3}, {1, 2, 3}, 1),
    "cohomology_group-bimodule": ({1, 2, 3}, {1, 2, 3}, 1),
    "natsys_cohomology": ({1, 2, 3}, {1, 2, 3}, 1),
    "coboundary_preimage": ({1, 2}, {1, 2}, 1),
    "equivalent": ({1, 2}, {1, 2}, 0),
    "hom_complex_compare": ({1, 2, 3, 4}, {1, 2, 3, 4}, 1),
    "schur_multiplier": ({1, 2, 3}, {1, 2, 3}, 1),
    "brauer_monoid": ({1, 2, 3}, {1, 2, 3}, 1),
    "witness_report": ({1, 2, 3}, {1, 2}, 1),
    "brute_cohomology": ({1, 2, 3}, set(), 1),
}


@pytest.mark.parametrize("name", sorted(BUILDS))
def test_each_call_builds_each_level_and_face_map_once(monkeypatch, name):
    call = _c2_calls()[name]
    seen = []
    real_split, real_faces, real_action = cohomology.Nerve._split, cohomology.Nerve._face_rows, natsys.bar_action

    def counted_split(N, m):
        seen.append(("level", m))
        return real_split(N, m)

    def counted_faces(N, m):
        seen.append(("faces", m))
        return real_faces(N, m)

    def counted_action(N, m, alpha, beta):
        seen.append(("action", m, alpha, beta))
        return real_action(N, m, alpha, beta)

    validated = []
    real_validate = modules.validate_module

    def counted_validate(M_):
        validated.append(M_)
        return real_validate(M_)

    monkeypatch.setattr(cohomology.Nerve, "_split", counted_split)
    monkeypatch.setattr(cohomology.Nerve, "_face_rows", counted_faces)
    monkeypatch.setattr(natsys, "bar_action", counted_action)
    monkeypatch.setattr(modules, "validate_module", counted_validate)
    result = call()
    assert len(seen) == len(set(seen)), seen
    levels, faces, validations = BUILDS[name]
    assert {k[1] for k in seen if k[0] == "level"} == levels
    assert {k[1] for k in seen if k[0] == "faces"} == faces
    assert len(validated) == validations
    # B_n has (n+2)-letter symbols: one action per generator and level
    actions = {k[1] for k in seen if k[0] == "action"}
    if name == "equivalent":
        assert result[0]
    if name == "hom_complex_compare":
        assert result["ok"]
        assert actions == {2, 3, 4}
    else:
        assert not actions


def test_hom_complex_compare_raises_cap_before_bar_work(monkeypatch):
    # on T at degree 2 the 8640x468 coboundary is over the cell cap; the
    # comparison must say so before it builds any bar system
    T = build_t_semigroup().semigroup
    D = from_zero_module(trivial_module(T, FinAbGroup([2])))

    def no_bar_work(S_, n_max):
        raise AssertionError("bar resolution built before the cap check")

    monkeypatch.setattr(natsys, "bar_resolution", no_bar_work)
    with pytest.raises(CapExceeded) as exc:
        hom_complex_compare(T, D, 2)
    assert exc.value.requested == 4043520
    assert "8640x468" in exc.value.quantity


def test_bar_exactness():
    five = adjoin(catalog.nil_square_semigroup(), "identity")
    for S in [one_zero_monoid(), five] + small_monoids_with_zero():
        report = bar_exactness_report(S, 2)
        for a, homs in report.items():
            for h in homs:
                assert h == (), (S.elements, a, homs)


def test_hom_complex_compare_point():
    S = one_zero_monoid()
    report = hom_complex_compare(S, trivial_Z(S), 2)
    assert report["ok"], report
    assert report["groups"][0] == (0,)
    assert report["groups"][1] == ()
    assert report["groups"][2] == ()


def test_hom_complex_compare_nil_square():
    S = adjoin(catalog.nil_square_semigroup(), "identity")
    M = trivial_module(S, FinAbGroup([2]))
    report = hom_complex_compare(S, from_zero_module(M), 2)
    assert report["ok"], report
    # degree-2 groups equal H_0^2 of the monoid
    h2 = cohomology_group(S, M, 2, "zero").group.invariants()
    assert report["groups"][2] == h2


def test_hom_complex_compare_nontrivial_action():
    S = adjoin(catalog.cyclic_group(2), "zero")
    M = scalar_module(S, FinAbGroup([3]), {0: 1, 1: -1})
    assert validate_module(M) is None
    report = hom_complex_compare(S, from_zero_module(M), 2)
    assert report["ok"], report
    for n in (0, 1, 2):
        assert report["groups"][n] == cohomology_group(S, M, n, "zero").group.invariants()


def _c2_minus_one():
    S = adjoin(catalog.cyclic_group(2), "zero")
    D = from_zero_module(scalar_module(S, FinAbGroup([3]), {0: 1, 1: -1}))
    return S, D


def _perturbed(D, side, key):
    """D with entry (0, 0) of one stored map off by one, not validated."""
    maps = {"left": dict(D.left), "right": dict(D.right)}
    M = maps[side][key]
    rows = [list(r) for r in M.a]
    rows[0][0] += 1
    maps[side][key] = IntMatrix(M.m, M.n, rows)
    return NaturalSystem(D.semigroup, D.groups, maps["left"], maps["right"])


@pytest.mark.parametrize("side", ["left", "right"])
def test_hom_complex_compare_reports_non_natural_map(side):
    # the generator acts by -1 on C3; the perturbed map acts by 0, which is
    # still a homomorphism and keeps the coboundaries equal, so only the
    # naturality check sees it (it used to end in NotAComplex instead)
    S, D = _c2_minus_one()
    report = hom_complex_compare(S, _perturbed(D, side, (1, 0)), 2)
    assert report["naturality"] is False
    assert report["differentials"] is True
    assert report["groups"] == []
    assert report["ok"] is False


def test_hom_complex_compare_reports_wrong_differential(monkeypatch):
    real = natsys.natsys_coboundary_hom

    def corrupted(N, D, n):
        delta = real(N, D, n)
        col = delta.matrix.cols[0]
        col[0] = col.get(0, 0) + 1
        return delta

    monkeypatch.setattr(natsys, "natsys_coboundary_hom", corrupted)
    S, D = _c2_minus_one()
    report = hom_complex_compare(S, D, 2)
    assert report["naturality"] is True
    assert report["differentials"] is False
    assert report["groups"] == []
    assert report["ok"] is False


def test_hom_complex_compare_checks_survive_optimize(run_python):
    # under python -O: a non-natural D and a corrupted coboundary must
    # still show in the report, so neither check can rest on an assert
    script = """
import zerocohom.natsys as ns
from zerocohom import catalog
from zerocohom.abgroups import FinAbGroup, IntMatrix
from zerocohom.brauer import brauer_monoid
from zerocohom.modules import scalar_module
from zerocohom.semigroups import adjoin

S = adjoin(catalog.cyclic_group(2), "zero")
D = ns.from_zero_module(scalar_module(S, FinAbGroup([3]), {0: 1, 1: -1}))
left = dict(D.left)
left[1, 0] = IntMatrix(1, 1, [[0]])
print(ns.hom_complex_compare(S, ns.NaturalSystem(S, D.groups, left, D.right), 2))
real = ns.natsys_coboundary_hom

def corrupted(N, D, n):
    delta = real(N, D, n)
    delta.matrix.cols[0][0] = delta.matrix.cols[0].get(0, 0) + 1
    return delta

ns.natsys_coboundary_hom = corrupted
print(ns.hom_complex_compare(S, D, 2))
"""
    proc = run_python("-O", "-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "{'naturality': False, 'differentials': True, 'groups': [], 'ok': False}",
        "{'naturality': True, 'differentials': False, 'groups': [], 'ok': False}",
    ]


def test_hom_complex_compare_negative_degree():
    S = one_zero_monoid()
    with pytest.raises(DegreeMismatch):
        hom_complex_compare(S, trivial_Z(S), -1)


def test_natsys_cohomology_negative_degree():
    S = one_zero_monoid()
    with pytest.raises(DegreeMismatch, match="negative degree"):
        natsys_cohomology(S, trivial_Z(S), -1)


@pytest.mark.parametrize("piece", ["level", "size", "products", "heads", "tails", "lasts", "slots", "rslots", "faces"])
def test_every_nerve_piece_refuses_a_negative_degree(piece):
    # each accessor, not only level(m): a scan or fold that reached m < 0
    # would recurse without end
    N = Nerve(one_zero_monoid())
    with pytest.raises(DegreeMismatch, match="negative degree"):
        getattr(N, piece)(-1)
    assert N.pieces == {}


def test_hom_group_rank_bookkeeping():
    # dim Hom(B_n, D) in normalized coordinates = sum over nerve tuples
    # of rank D at the product
    S = adjoin(catalog.cyclic_group(2), "zero")
    M = trivial_module(S, FinAbGroup([2, 2]))
    D = from_zero_module(M)
    for n in (0, 1, 2):
        tuples = nerve(S, n)
        expected = sum(2 for _ in tuples)
        assert natsys_coboundary_hom(Nerve(S), D, n).source.rank == expected


def test_natsys_degree_cap():
    S = one_zero_monoid()
    with pytest.raises(CapExceeded):
        natsys_cohomology(S, trivial_Z(S), 4)
