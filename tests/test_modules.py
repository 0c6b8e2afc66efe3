import pytest

from zerocohom import catalog
from zerocohom.abgroups import FinAbGroup, IntMatrix
from zerocohom.cohomology import coboundary_preimage, cohomology_group, zero_cochain
from zerocohom.errors import InvalidLabeling, InvalidModule, NotIdempotent
from zerocohom.modules import (
    Violation,
    ZeroModule,
    corner_module,
    ensure_valid,
    galois_units_module,
    restrict_module,
    scalar_module,
    trivial_bimodule,
    trivial_module,
    validate_module,
)
from zerocohom.semigroups import adjoin


def test_trivial_module_always_valid():
    for S in (
        catalog.nil_square_semigroup(),
        catalog.mitchell_quotient(),
        catalog.cyclic_group(3),
        catalog.brandt_b2(),
    ):
        M = trivial_module(S, FinAbGroup([2]))
        assert validate_module(M) is None
        for s in range(S.order):
            assert M.matrix(s) == IntMatrix.identity(1)


def test_validate_module_violation_witness():
    S = catalog.nil_square_semigroup()
    # u acts by 0, v by identity: act(u)act(v) = 0 != act(uv) = act(w) pick id
    A = FinAbGroup([4])
    action = {
        0: IntMatrix(1, 1, [[0]]),
        1: IntMatrix.identity(1),
        2: IntMatrix.identity(1),
    }
    v = validate_module(ZeroModule(S, A, action))
    assert v is not None and v.kind == "composition"
    s, t = v.witness
    assert S.mul(s, t) != S.zero
    with pytest.raises(InvalidModule):
        ensure_valid(ZeroModule(S, A, action))
    # C2^0 with the action of g missing: refused before any coboundary is built
    C2_0 = adjoin(catalog.cyclic_group(2), "zero")
    partial = ZeroModule(C2_0, A, {C2_0.identity: IntMatrix.identity(1)})
    for n in (0, 1):
        with pytest.raises(InvalidModule, match="action domain too small"):
            coboundary_preimage(C2_0, partial, zero_cochain(C2_0, partial, n))


def test_endomorphism_well_defined_check():
    S = catalog.cyclic_group(2)
    # on Z/4, multiplication by anything is fine; map Z/2 -> Z/4 style
    # violation: a 1x1 matrix cannot fail for Z/4, so use Z/2 + Z/4
    A = FinAbGroup([2, 4])
    bad = IntMatrix(2, 2, [[1, 0], [1, 1]])  # sends (1,0) to (1,1): 2*(1,1) != 0 in C4 part
    v = validate_module(ZeroModule(S, A, {0: IntMatrix.identity(2), 1: bad}))
    assert v is not None and v.kind == "endomorphism"


def test_galois_units_module_gf4():
    # GF(4) = GF(2)[t]/(t^2+t+1): units 1, t, t^2=t+1, Frobenius x -> x^2
    S = adjoin(catalog.cyclic_group(2), "zero")
    M = galois_units_module(2, 2, S, {0: 0, 1: 1})
    assert M.group.factors == (3,)
    assert validate_module(M) is None
    # explicit field oracle: powers of t are t^1, t^2, t^3=1; squaring
    # doubles the exponent mod 3
    mul = {(a, b): (a + b) % 3 for a in range(3) for b in range(3)}
    frob = {e: (2 * e) % 3 for e in range(3)}
    poly = {0: (0, 1), 1: (1, 1), 2: (1, 0)}  # t^0=1? no: exponent -> coeffs of GF(4)

    # direct polynomial arithmetic oracle for Frobenius on exponents
    def gf4_mul(x, y):
        # elements as (a, b) = a*t + b
        a, b = x
        c, d = y
        # (a t + b)(c t + d) = ac t^2 + (ad+bc) t + bd; t^2 = t + 1
        hi = a * c
        return (((hi + a * d + b * c) % 2), ((hi + b * d) % 2))

    t = (1, 0)
    powers = {0: (0, 1)}
    cur = (0, 1)
    for e in range(1, 3):
        cur = gf4_mul(cur, t)
        powers[e] = cur
    for e in range(3):
        sq = gf4_mul(powers[e], powers[e])
        assert sq == powers[(2 * e) % 3]
    assert M.act(1, (1,)) == (2 % 3,)
    assert M.act(0, (1,)) == (1,)


def test_galois_units_module_gf8():
    # GF(8) = GF(2)[t]/(t^3+t+1); generator acts by doubling exponents mod 7
    S = adjoin(catalog.cyclic_group(3), "zero")
    M = galois_units_module(2, 3, S, {0: 0, 1: 1, 2: 2})
    assert M.group.factors == (7,)
    assert validate_module(M) is None

    def gf8_mul(x, y):
        # polynomials mod 2 mod t^3+t+1, coefficient tuples (a2, a1, a0)
        prod = [0] * 5
        for i, a in enumerate(x):
            for j, b in enumerate(y):
                prod[i + j] += a * b
        # reduce: degrees count from the left (index 0 = t^4)
        coeffs = prod[::-1]  # now index = degree
        for deg in range(4, 2, -1):
            if coeffs[deg] % 2:
                coeffs[deg] -= 1
                coeffs[deg - 2] += 1  # t^deg = t^(deg-2) + t^(deg-3)
                coeffs[deg - 3] += 1
        return tuple(c % 2 for c in coeffs[2::-1])

    t = (0, 1, 0)
    powers = {0: (0, 0, 1)}
    cur = (0, 0, 1)
    for e in range(1, 7):
        cur = gf8_mul(cur, t)
        powers[e] = cur
    assert len(set(powers.values())) == 7
    for e in range(7):
        sq = gf8_mul(powers[e], powers[e])
        assert sq == powers[(2 * e) % 7]
    assert M.act(1, (1,)) == (2,)
    assert M.act(2, (3,)) == (12 % 7,)


def test_galois_trivial_extension():
    S = adjoin(catalog.cyclic_group(1), "zero")
    M = galois_units_module(3, 1, S, {0: 0})
    assert M.group.factors == (2,)
    assert M.act(0, (1,)) == (1,)


def test_galois_invalid_labeling():
    S = adjoin(catalog.cyclic_group(2), "zero")
    # label(identity) = 1 is not additive: 1*1 = 1 needs 1+1 = 1 mod 2
    with pytest.raises(InvalidLabeling):
        galois_units_module(2, 2, S, {0: 1, 1: 0})
    with pytest.raises(InvalidLabeling):
        galois_units_module(2, 2, S, {0: 0})  # unlabeled generator


def test_corner_module_identity_idempotent():
    S = catalog.two_chain_monoid()
    A = FinAbGroup([2, 2])
    M = trivial_module(S, A)
    eA, sub = corner_module(M, S.identity)
    assert eA.group.invariants() == (2, 2)


def test_corner_module_projection():
    S = catalog.two_chain_monoid()
    A = FinAbGroup([2, 2])
    proj = IntMatrix(2, 2, [[1, 0], [0, 0]])
    M = ZeroModule(S, A, {0: IntMatrix.identity(2), 1: proj})
    assert validate_module(M) is None
    eA, sub = corner_module(M, 1)
    assert eA.group.invariants() == (2,)
    assert validate_module(eA) is None
    with pytest.raises(NotIdempotent):
        corner_module(M, 0) if S.table[0][0] != 0 else None
        corner_module(trivial_module(catalog.cyclic_group(2), A), 1)


def test_restrict_module():
    S = catalog.two_chain_monoid()
    M = trivial_module(S, FinAbGroup([3]))
    R = restrict_module(M, [1])
    assert R.semigroup.order == 1
    assert validate_module(R) is None


def test_two_sided_corner_is_refused_and_restriction_keeps_the_right_action():
    S = catalog.two_chain_monoid()
    A = FinAbGroup([3])
    one, zero = IntMatrix.identity(1), IntMatrix(1, 1, [[0]])
    M = ZeroModule(S, A, {0: one, 1: one}, {0: one, 1: zero})
    assert validate_module(M) is None
    with pytest.raises(InvalidModule, match="two-sided"):
        corner_module(M, S.identity)
    R = restrict_module(M, [1])
    assert R.right == {0: zero} and validate_module(R) is None
    assert restrict_module(trivial_module(S, A), [1]).right is None


def test_bimodule_validation():
    S = catalog.nil_square_semigroup()
    B = trivial_bimodule(S, FinAbGroup([4]))
    assert validate_module(B) is None
    # left action by -1 on u, v: (-1)(-1) = 1 must equal action of w
    A = FinAbGroup([4])
    minus = IntMatrix(1, 1, [[-1]])
    one = IntMatrix.identity(1)
    left = {0: minus, 1: minus, 2: one}
    right = {0: one, 1: one, 2: one}
    B2 = ZeroModule(S, A, left, right)
    assert validate_module(B2) is None
    bad_right = {0: one, 1: one, 2: IntMatrix(1, 1, [[2]])}
    # incompatible right action law: act_r(u)act_r(v) != act_r(vu)
    bad = ZeroModule(S, A, left, {0: IntMatrix(1, 1, [[2]]), 1: one, 2: one})
    v = validate_module(bad)
    assert v is not None


def test_bimodule_with_smaller_right_domain_is_a_violation():
    # left on u, v, w and right on u only: a typed violation, not a KeyError
    S = catalog.nil_square_semigroup()
    A = FinAbGroup([2])
    one = IntMatrix.identity(1)
    B = ZeroModule(S, A, {0: one, 1: one, 2: one}, {0: one})
    v = validate_module(B)
    assert v == Violation("right-missing", 1)
    with pytest.raises(InvalidModule) as exc:
        cohomology_group(S, B, 1, "zero")
    assert exc.value.witness == 1


def test_noncommuting_bimodule_is_a_compatibility_violation():
    # on the null semigroup every product is 0, so only compatibility can fail;
    # a1 and a2 share the left matrix L, a0 and a2 the right matrix R
    S = catalog.null_semigroup(3)
    A = FinAbGroup([2, 2])
    one = IntMatrix.identity(2)
    L, R = IntMatrix(2, 2, [[1, 1], [0, 1]]), IntMatrix(2, 2, [[1, 0], [1, 1]])
    B = ZeroModule(S, A, {0: one, 1: L, 2: L}, {0: R, 1: one, 2: R})
    assert validate_module(B) == Violation("compatibility", (1, 0))


def test_bimodule_compatibility_checks_each_pair_of_matrices_once(monkeypatch):
    # T's trivial bimodule shares one matrix on both sides: one check per law
    from zerocohom import modules
    from zerocohom.partial import build_t_semigroup

    calls, real = [], modules.same_map

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(modules, "same_map", counted)
    B = trivial_bimodule(build_t_semigroup().semigroup, FinAbGroup([2]))
    assert validate_module(B) is None
    assert len(calls) == 3


def test_scalar_module():
    S = catalog.nil_square_semigroup()
    M = scalar_module(S, FinAbGroup([4]), {0: 2, 1: 2, 2: 0})
    assert validate_module(M) is None
