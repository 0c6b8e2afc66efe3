"""Extra cross-checks: infinite coefficients, two-sided module oracle, order 4."""

import json
import random

from dense_twin import smith_normal_form

from zerocohom import catalog
from zerocohom.abgroups import FinAbGroup, IntMatrix
from zerocohom.cli import execute
from zerocohom.cohomology import brute_cohomology, cohomology_group
from zerocohom.modules import trivial_bimodule
from zerocohom.schur import brute_multiplier, multipliers_agree, schur_multiplier


def test_schur_with_infinite_coefficients():
    # component at the empty ideal for the 2-group over Z is C2
    G = catalog.cyclic_group(2)
    sl = schur_multiplier(G, FinAbGroup([0]))
    assert sl.components[frozenset()].invariants() == (2,)
    assert sl.components[frozenset(range(2))].invariants() == ()


def test_bimodule_brute_oracle():
    S = catalog.nil_square_semigroup()
    B = trivial_bimodule(S, FinAbGroup([2]))
    fast = cohomology_group(S, B, 2, "zero").group.invariants()
    slow = brute_cohomology(S, B, 2, "zero").invariants()
    assert fast == slow != ()


def test_cli_bimodule_variant(tmp_path, capsys):
    sg = tmp_path / "s.json"
    sg.write_text(
        json.dumps(
            {
                "elements": ["u", "v", "w", "0"],
                "zero": "0",
                "table": [
                    ["w", "w", "0", "0"],
                    ["w", "w", "0", "0"],
                    ["0", "0", "0", "0"],
                    ["0", "0", "0", "0"],
                ],
            }
        )
    )
    mod = tmp_path / "bimod.json"
    mod.write_text(
        json.dumps(
            {
                "invariant_factors": [2],
                "action": {"u": [[1]], "v": [[1]], "w": [[1]]},
                "right_action": {"u": [[1]], "v": [[1]], "w": [[1]]},
            }
        )
    )
    code = execute(
        ["cohom", "--semigroup", str(sg), "--module", str(mod), "--degree", "2"]
    )
    out = capsys.readouterr().out
    assert code == 0
    report = json.loads(out)
    assert report["result"]["group"]["invariant_factors"] != []


def test_order4_multiplier_oracle():
    # the 4-chain semilattice exercises a 5-ideal semilattice end to end
    chain = None
    for S in catalog.monoid_catalogue(4):
        if S.order == 4 and S.elements == ("1", "e", "f", "g"):
            chain = S
            break
    assert chain is not None
    A = FinAbGroup([2])
    rep = multipliers_agree(schur_multiplier(chain, A), brute_multiplier(chain, A))
    assert rep["ok"], rep


def test_snf_larger_entries():
    rng = random.Random(99)
    for _ in range(20):
        m, n = rng.randint(2, 6), rng.randint(2, 7)
        M = IntMatrix(m, n, [[rng.randint(-99, 99) for _ in range(n)] for _ in range(m)])
        D, U, V, Uinv = smith_normal_form(M)
        assert U.mul(Uinv) == IntMatrix.identity(m)
        assert U.mul(M).mul(V) == D
        diag = D.diagonal()
        for i in range(len(diag) - 1):
            if diag[i] and diag[i + 1]:
                assert diag[i + 1] % diag[i] == 0
