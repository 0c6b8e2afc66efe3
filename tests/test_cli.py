import hashlib
import json

import pytest

from zerocohom import brauer, cohomology, natsys
from zerocohom.abgroups import FinAbGroup
from zerocohom.cli import execute, load_module, load_semigroup


NIL4 = {
    "elements": ["u", "v", "w", "0"],
    "zero": "0",
    "table": [
        ["w", "w", "0", "0"],
        ["w", "w", "0", "0"],
        ["0", "0", "0", "0"],
        ["0", "0", "0", "0"],
    ],
}

# NIL4 with an identity adjoined: natsys needs a monoid with zero
NIL4M = {
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

TRIV_Z2 = {"invariant_factors": [2]}


@pytest.fixture
def nil4_path(tmp_path):
    p = tmp_path / "nil4.json"
    p.write_text(json.dumps(NIL4))
    return str(p)


@pytest.fixture
def nil4m_path(tmp_path):
    p = tmp_path / "nil4m.json"
    p.write_text(json.dumps(NIL4M))
    return str(p)


@pytest.fixture
def z2_path(tmp_path):
    p = tmp_path / "triv-z2.json"
    p.write_text(json.dumps(TRIV_Z2))
    return str(p)


def run(capsys, argv):
    code = execute(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out) if captured.out else None
    return code, report, captured.err


def test_validate(nil4_path, capsys):
    code, report, _ = run(capsys, ["validate", "--semigroup", nil4_path])
    assert code == 0
    assert report["result"]["order"] == 4
    assert report["result"]["has_zero"] is True
    assert report["result"]["categorical_at_zero"] is False
    assert report["result"]["ideal_count"] == 6


def test_cohom_nil4(nil4_path, z2_path, capsys):
    code, report, _ = run(
        capsys,
        ["cohom", "--semigroup", nil4_path, "--module", z2_path, "--degree", "2", "--variant", "zero"],
    )
    assert code == 0
    assert report["result"]["group"]["invariant_factors"] == [2, 2]
    assert len(report["witnesses"]) == 2


def test_cohom_oracle_mode(nil4_path, z2_path, capsys):
    code, report, _ = run(
        capsys,
        [
            "oracle", "cohom",
            "--semigroup", nil4_path,
            "--module", z2_path,
            "--degree", "2",
        ],
    )
    assert code == 0
    assert report["result"]["oracle_match"] is True


def test_report_byte_stable(nil4_path, z2_path, capsys):
    argv = ["cohom", "--semigroup", nil4_path, "--module", z2_path, "--degree", "2"]
    execute(argv)
    out1 = capsys.readouterr().out
    execute(argv)
    out2 = capsys.readouterr().out
    assert out1 == out2


def test_tsemigroup(capsys):
    code, report, _ = run(capsys, ["tsemigroup"])
    assert code == 0
    r = report["result"]
    assert r["order"] == 25
    assert r["unit_group_order"] == 6
    assert r["rees"]["group_order"] == 2
    assert r["rees"]["rows"] == 3 and r["rees"]["cols"] == 3
    assert r["rees"]["sandwich"] == [["C", "0", "C"], ["C", "CABA", "0"], ["0", "C", "C"]]


def test_brauer(capsys):
    code, report, _ = run(capsys, ["brauer", "--q", "2", "--n", "2"])
    assert code == 0
    r = report["result"]
    assert r["component_count"] == 2
    for comp in r["components"]:
        assert comp["group"]["invariant_factors"] == []


def test_brauer_oracle(capsys):
    code, report, _ = run(capsys, ["oracle", "brauer", "--q", "2", "--n", "2"])
    assert code == 0
    assert report["result"]["oracle_match"] is True


@pytest.mark.parametrize("q", [6, 1])
def test_brauer_rejects_non_prime_power(capsys, q):
    # GF(6) does not exist; q = 1 gives a zero unit-group order
    code, report, err = run(capsys, ["brauer", "--q", str(q), "--n", "2"])
    assert code == 2
    assert report is None
    assert f"q = {q} " in err and "prime power" in err


@pytest.mark.parametrize("n", [0, -1])
def test_brauer_rejects_extension_degree_below_one(capsys, n):
    code, report, err = run(capsys, ["brauer", "--q", "2", "--n", str(n)])
    assert code == 2
    assert report is None
    assert f"input error: extension degree n must be >= 1, got n = {n}" in err


def test_modifications(capsys):
    code, report, _ = run(capsys, ["modifications", "--group", "Z2"])
    assert code == 0
    assert report["result"]["count"] == 2


@pytest.fixture
def chain_path(tmp_path):
    # the two-element chain monoid {1, e}
    p = tmp_path / "chain.json"
    p.write_text(json.dumps({"elements": ["1", "e"], "table": [["1", "e"], ["e", "e"]]}))
    return str(p)


def test_schur(chain_path, z2_path, capsys):
    code, report, _ = run(capsys, ["schur", "--semigroup", chain_path, "--module", z2_path])
    assert code == 0
    assert report["result"]["component_count"] == 3
    assert "oracle_match" not in report["result"]
    # each input is recorded by the sha256 prefix of its bytes
    for path in (chain_path, z2_path):
        with open(path, "rb") as fh:
            assert report["inputs"][path] == hashlib.sha256(fh.read()).hexdigest()[:16]


def test_oracle_flag_is_refused(chain_path, z2_path, capsys):
    # the cross-check is asked for only as `oracle schur`
    with pytest.raises(SystemExit) as exc:
        execute(["schur", "--semigroup", chain_path, "--module", z2_path, "--oracle"])
    assert exc.value.code == 2
    assert "--oracle" in capsys.readouterr().err


def test_schur_oracle(chain_path, z2_path, capsys):
    code, report, _ = run(capsys, ["oracle", "schur", "--semigroup", chain_path, "--module", z2_path])
    assert code == 0
    assert report["command"] == "oracle schur"
    assert report["result"]["component_count"] == 3
    assert report["result"]["oracle_match"] is True


def test_schur_oracle_on_a_monoid_whose_product_scan_passes_the_cap(nil4m_path, z2_path, capsys):
    # a product scan of the empty zero set would cover 2^25 assignments, past
    # FACTOR_SET_CAP; the pruned search visits 6104 nodes over all zero sets
    # and finds 73 factor sets
    code, report, err = run(capsys, ["oracle", "schur", "--semigroup", nil4m_path, "--module", z2_path])
    assert code == 0, err
    assert report["result"]["component_count"] == 7
    assert report["result"]["oracle_match"] is True


def test_brauer_cap_names_request_and_cap(capsys, monkeypatch):
    # GF(2^3)/GF(2): the Galois group Z3 has four modifications, the third
    # one found passes a cap of 2
    monkeypatch.setattr(brauer, "MODIFICATION_CAP", 2)
    code, report, err = run(capsys, ["brauer", "--q", "2", "--n", "3"])
    assert code == 3
    assert report is None
    assert "cap exceeded: modifications found 3 exceeds cap 2" in err


def test_brauer_refuses_a_large_extension_before_the_search(capsys):
    # GF(2^40)/GF(2): the two-cell modifications of Z40 alone pass the cap
    code, report, err = run(capsys, ["brauer", "--q", "2", "--n", "40"])
    assert code == 3
    assert report is None
    assert "cap exceeded: modifications (lower bound) 984789 exceeds cap 4096" in err


def test_enumerate(tmp_path, capsys):
    pres = tmp_path / "prop3.txt"
    pres.write_text("gens: x y; rels: xy=y, xx=xxx; zeros: yx, yy")
    code, report, _ = run(capsys, ["enumerate", "--presentation", str(pres), "--bound", "10"])
    assert code == 0
    assert report["result"]["order"] == 4
    # round-trip: the emitted semigroup re-parses to an identical object
    out = tmp_path / "out.json"
    out.write_text(json.dumps(report["result"]["semigroup"]))
    S = load_semigroup(str(out))
    assert list(S.elements) == report["result"]["normal_forms"]


def test_enumerate_truncated_exit_code(tmp_path, capsys):
    pres = tmp_path / "free.txt"
    pres.write_text("gens: a")
    code, report, err = run(
        capsys, ["enumerate", "--presentation", str(pres), "--bound", "5", "--mode", "monoid"]
    )
    assert code == 3
    assert report is None
    # the free monoid never closes: the word graph's node budget stops it,
    # and the report names that budget, not the element bound
    assert "cap exceeded: word graph nodes (node budget reached with 2000 normal forms found, first: 1, a, aa, " in err
    assert "2001 exceeds cap 2000" in err
    assert "exceeds cap 5" not in err


def test_enumerate_bound_stop_exit_code(tmp_path, capsys):
    # prop3 presents 4 elements: the element bound 3 stops the enumeration
    pres = tmp_path / "prop3.txt"
    pres.write_text("gens: x y; rels: xy=y, xx=xxx; zeros: yx, yy")
    code, report, err = run(capsys, ["enumerate", "--presentation", str(pres), "--bound", "3"])
    assert code == 3
    assert report is None
    assert "cap exceeded: normal forms found (first: " in err
    assert "4 exceeds cap 3" in err


def test_gown_presentation(tmp_path, capsys):
    pres = tmp_path / "p.txt"
    pres.write_text("gens: x y; rels: xy=y, xx=xxx; zeros: yx, yy")
    code, report, _ = run(capsys, ["gown", "--presentation", str(pres)])
    assert code == 0
    assert report["result"]["gown_presentation"] == "gens: x y; rels: xy=y, xx=xxx"


def test_gown_presentation_enumerates_past_the_length_bound(tmp_path, capsys):
    # 8 elements, more than the sequence-length default of 4: only a full
    # enumeration shows that both sides of aaa=bbb are zero
    pres = tmp_path / "p.txt"
    pres.write_text("gens: a b c; rels: ab=ba, ac=ca, bc=cb, aaa=bbb; zeros: aa, bb, cc")
    code, report, _ = run(capsys, ["gown", "--presentation", str(pres)])
    assert code == 0
    assert report["result"]["gown_presentation"] == "gens: a b c; rels: ab=ba, ac=ca, bc=cb"
    code, report, _ = run(capsys, ["gown", "--presentation", str(pres), "--bound", "4"])
    assert report["result"]["gown_presentation"] == "gens: a b c; rels: ab=ba, ac=ca, bc=cb, aaa=bbb"


def test_gown_sequences_default_length_bound(nil4_path, capsys):
    code, report, _ = run(capsys, ["gown", "--semigroup", nil4_path])
    assert code == 0
    assert report["result"]["length_bound"] == 4


def test_gown_sequences(nil4_path, capsys):
    code, report, _ = run(capsys, ["gown", "--semigroup", nil4_path, "--bound", "2"])
    assert code == 0
    assert report["result"]["class_count"] >= 3


@pytest.mark.parametrize("bound", [0, -2])
def test_gown_sequences_rejects_bound_below_one(nil4_path, capsys, bound):
    code, report, err = run(capsys, ["gown", "--semigroup", nil4_path, "--bound", str(bound)])
    assert code == 2
    assert report is None
    assert "input error: length bound must be >= 1" in err


def test_tsubsets(capsys):
    code, report, _ = run(capsys, ["tsubsets", "--group", "Z2"])
    assert code == 0
    assert report["result"]["count"] == 3


def test_natsys_and_compare(nil4m_path, z2_path, capsys):
    code, report, _ = run(
        capsys, ["natsys", "--semigroup", nil4m_path, "--module", z2_path, "--degree", "2"]
    )
    assert code == 0
    assert report["result"]["group"]["invariant_factors"] == [2, 2]
    code, report, _ = run(
        capsys, ["compare-thm14", "--semigroup", nil4m_path, "--module", z2_path, "--degree", "2"]
    )
    assert code == 0
    assert report["result"]["match"] is True
    assert report["result"]["groups"][2] == {"degree": 2, "group": [2, 2]}


# C2^0 over Z, the generator acting by -1 on the right only
C2_0 = {"elements": ["1", "g", "0"], "zero": "0", "table": [["1", "g", "0"], ["g", "1", "0"], ["0", "0", "0"]]}
RIGHT_SIGN = {"invariant_factors": [0], "right_action": {"1": [[1]], "g": [[-1]]}}


@pytest.mark.parametrize("left", [None, {"1": [[1]], "g": [[1]]}], ids=["trivial", "given"])
def test_natsys_and_compare_read_the_right_action(tmp_path, left, capsys):
    sg, mod = tmp_path / "c2z.json", tmp_path / "sign.json"
    sg.write_text(json.dumps(C2_0))
    mod.write_text(json.dumps(RIGHT_SIGN if left is None else {**RIGHT_SIGN, "action": left}))
    files = ["--semigroup", str(sg), "--module", str(mod)]
    groups = []
    for n in (0, 1, 2):
        code, cohom, _ = run(capsys, ["cohom", *files, "--degree", str(n)])
        assert code == 0
        code, natsys, _ = run(capsys, ["natsys", *files, "--degree", str(n)])
        assert code == 0
        assert natsys["result"]["group"] == cohom["result"]["group"]
        groups.append({"degree": n, "group": cohom["result"]["group"]["invariant_factors"]})
    assert groups == [{"degree": 0, "group": []}, {"degree": 1, "group": [2]}, {"degree": 2, "group": []}]
    code, report, _ = run(capsys, ["compare-thm14", *files, "--degree", "2"])
    assert code == 0 and report["result"]["match"] is True
    assert report["result"]["groups"] == groups


def test_compare_thm14_mismatch_exits_1_with_the_report(nil4m_path, z2_path, monkeypatch, capsys):
    # a comparison that disagrees: the report still goes to stdout
    real = natsys.hom_complex_compare

    def disagreeing(S, D, n):
        return {**real(S, D, n), "ok": False}

    monkeypatch.setattr(natsys, "hom_complex_compare", disagreeing)
    argv = ["compare-thm14", "--semigroup", nil4m_path, "--module", z2_path, "--degree", "2"]
    code, report, err = run(capsys, argv)
    assert code == 1
    assert report["result"]["match"] is False
    assert report["result"]["groups"][2] == {"degree": 2, "group": [2, 2]}
    assert "oracle mismatch" in err


def test_oracle_that_disagrees_exits_1_with_the_report(nil4_path, z2_path, monkeypatch, capsys):
    monkeypatch.setattr(cohomology, "brute_cohomology", lambda S, M, n, variant: FinAbGroup([2]))
    argv = ["oracle", "cohom", "--semigroup", nil4_path, "--module", z2_path, "--degree", "2"]
    code, report, err = run(capsys, argv)
    assert code == 1
    assert report["result"]["oracle_match"] is False
    assert report["result"]["group"]["invariant_factors"] == [2, 2]
    assert report["result"]["oracle"]["invariant_factors"] == [2]
    assert "oracle mismatch" in err


def test_compare_negative_degree_is_input_error(nil4m_path, z2_path, capsys):
    argv = ["compare-thm14", "--semigroup", nil4m_path, "--module", z2_path, "--degree", "-1"]
    code, report, err = run(capsys, argv)
    assert code == 2
    assert report is None
    assert "input error: negative degree" in err


def test_natsys_negative_degree_is_input_error(nil4m_path, z2_path, capsys):
    argv = ["natsys", "--semigroup", nil4m_path, "--module", z2_path, "--degree", "-1"]
    code, report, err = run(capsys, argv)
    assert code == 2
    assert report is None
    assert "input error: negative degree" in err


@pytest.mark.parametrize("command", ["natsys", "compare-thm14"])
def test_identity_that_is_the_zero_is_input_error(tmp_path, command, capsys):
    one = tmp_path / "one.json"
    one.write_text(json.dumps({"elements": ["0"], "zero": "0", "table": [["0"]]}))
    code, report, err = run(capsys, [command, "--semigroup", str(one), "--degree", "1"])
    assert code == 2
    assert report is None
    assert "input error: the identity is the zero" in err


def test_compare_cap_names_degree_and_cap(nil4m_path, capsys):
    code, report, err = run(capsys, ["compare-thm14", "--semigroup", nil4m_path, "--degree", "3"])
    assert code == 3
    assert report is None
    assert "cap exceeded: comparison degree 3 exceeds cap 2" in err


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, report, err = run(capsys, ["validate", "--semigroup", str(bad)])
    assert code == 2
    assert report is None
    assert "input error" in err


def test_gown_requires_an_input(capsys):
    code, report, err = run(capsys, ["gown"])
    assert code == 2
    assert "input error" in err


@pytest.mark.parametrize("flags", [[], ["-O"]], ids=["plain", "optimized"])
def test_wrong_shape_action_is_input_error(tmp_path, nil4_path, flags, run_python):
    # a 2x2 action on a rank-1 module; the check must not rest on an assert
    mod = tmp_path / "bad-shape.json"
    mod.write_text(json.dumps({"invariant_factors": [2], "action": {"u": [[1, 0], [0, 1]]}}))
    argv = ["cohom", "--semigroup", nil4_path, "--module", str(mod), "--degree", "2"]
    proc = run_python(*flags, "-m", "zerocohom.cli", *argv)
    assert proc.returncode == 2, proc.stderr
    assert proc.stdout == ""
    assert "input error: action matrix is 2x2, expected 1x1 (witness u)" in proc.stderr


MALFORMED = {
    "factors-not-a-list": ("module", {"invariant_factors": 5}, "invariant_factors must be a list of integers"),
    "factor-float": ("module", {"invariant_factors": [2.7]}, "invariant_factors must be a list of integers"),
    "factor-bool": ("module", {"invariant_factors": [True]}, "invariant_factors must be a list of integers"),
    "action-entry": (
        "module",
        {"invariant_factors": [2], "action": {"u": [["x"]]}},
        "action matrix must be a list of rows of integers (witness u)",
    ),
    "action-name": ("module", {"invariant_factors": [2], "action": {"q": [[1]]}}, "unknown element 'q'"),
    "top-level-list": ("semigroup", [NIL4], "must hold a JSON object, not a list"),
    "zero-name": ("semigroup", dict(NIL4, zero="z"), "unknown zero element 'z'"),
    "no-table": ("semigroup", {k: v for k, v in NIL4.items() if k != "table"}, "bad.json has no field 'table'"),
    "no-factors": ("module", {"action": {"u": [[1]]}}, "bad.json has no field 'invariant_factors'"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_malformed_input_exits_2(tmp_path, nil4_path, case, capsys):
    kind, doc, reason = MALFORMED[case]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    if kind == "module":
        argv = ["cohom", "--semigroup", nil4_path, "--module", str(bad), "--degree", "2"]
    else:
        argv = ["validate", "--semigroup", str(bad)]
    code, report, err = run(capsys, argv)
    assert code == 2
    assert report is None
    assert err.count("\n") == 1 and err.startswith("input error: ") and reason in err, err


def test_module_roundtrip(tmp_path, nil4_path):
    moddoc = {
        "invariant_factors": [4],
        "action": {"u": [[1]], "v": [[1]], "w": [[1]], "0": [[1]]},
    }
    p = tmp_path / "mod.json"
    p.write_text(json.dumps(moddoc))
    S = load_semigroup(nil4_path)
    M = load_module(str(p), S)
    assert M.group.factors == (4,)
    assert set(M.action) == set(range(4))


def test_gown_refuses_two_inputs(tmp_path, nil4_path, capsys):
    pres = tmp_path / "p.txt"
    pres.write_text("gens: x y; rels: xy=y, xx=xxx; zeros: yx, yy")
    code, report, err = run(capsys, ["gown", "--presentation", str(pres), "--semigroup", nil4_path])
    assert code == 2
    assert report is None
    assert "input error: gown takes exactly one of --presentation and --semigroup" in err


def test_em_module_broken_at_a_zero_product_is_input_error(tmp_path, capsys):
    # on C2^0, g acts by -1 and the zero by 1: g.0 = 0 but (-1)(1) != 1 on C3
    c20 = tmp_path / "c2-zero.json"
    table = [["1", "g", "0"], ["g", "1", "0"], ["0", "0", "0"]]
    c20.write_text(json.dumps({"elements": ["1", "g", "0"], "zero": "0", "table": table}))
    mod = tmp_path / "scalar-c3.json"
    mod.write_text(json.dumps({"invariant_factors": [3], "action": {"1": [[1]], "g": [[-1]], "0": [[1]]}}))
    argv = ["cohom", "--semigroup", str(c20), "--module", str(mod), "--degree", "1", "--variant", "em"]
    code, report, err = run(capsys, argv)
    assert code == 2
    assert report is None
    assert "input error: module axioms violated" in err
    # the zero nerve never multiplies through the zero, so the same module serves it
    code, report, _ = run(capsys, argv[:-2])
    assert code == 0


# the abelian-group and cohomology layers and the modules built on them
ALGEBRA = {"abgroups", "elimination", "modules", "nerve", "cohomology", "schur", "natsys", "brauer"}
# brauer_monoid needs the cohomology layer, and enumerate_modifications stays
# beside it in brauer, where perfbench imports and traces both by name, so
# modifications loads that layer too
BRAUER = {"schur", "natsys", "partial", "presentations"}

# The ten subcommands of perfbench's cli workload, with small inputs, each
# with the package modules it must not load.
STARTUP = {
    "tsemigroup": (["tsemigroup"], ALGEBRA),
    "enumerate": (["enumerate", "--presentation", "{pres}", "--bound", "10"], ALGEBRA | {"catalog", "partial"}),
    "gown": (["gown", "--presentation", "{pres}"], ALGEBRA | {"catalog", "partial"}),
    "tsubsets": (["tsubsets", "--group", "Z2^3"], ALGEBRA),
    "modifications": (["modifications", "--group", "Z5"], BRAUER),
    "cohom": (
        ["cohom", "--semigroup", "{nil4}", "--module", "{z2}", "--degree", "2"],
        {"presentations", "catalog", "schur", "partial", "natsys", "brauer"},
    ),
    "oracle-cohom": (
        ["oracle", "cohom", "--semigroup", "{nil4}", "--module", "{z2}", "--degree", "2"],
        {"presentations", "catalog", "schur", "partial", "natsys", "brauer"},
    ),
    "schur": (
        ["schur", "--semigroup", "{nil4m}", "--module", "{z2}"],
        {"presentations", "catalog", "partial", "natsys", "brauer"},
    ),
    "natsys": (
        ["natsys", "--semigroup", "{nil4m}", "--module", "{z2}", "--degree", "2"],
        {"presentations", "catalog", "schur", "partial", "brauer"},
    ),
    "brauer": (["brauer", "--q", "2", "--n", "5"], BRAUER),
}

# runs the CLI with its report swallowed, then prints what the process loaded
_LOADED = """
import contextlib, io, json, sys
from zerocohom.cli import execute
with contextlib.redirect_stdout(io.StringIO()):
    code = execute(sys.argv[1:])
loaded = sorted(m.split(".", 1)[1] for m in sys.modules if m.startswith("zerocohom."))
stdlib = {name: name in sys.modules for name in ("hashlib", "dataclasses", "inspect")}
print(json.dumps({"code": code, "modules": loaded, **stdlib}))
"""


def test_importing_the_package_loads_no_module(run_python):
    script = "import sys, zerocohom; print(sorted(m for m in sys.modules if m.startswith('zerocohom.')))"
    proc = run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("name", sorted(STARTUP))
def test_subcommand_loads_only_what_it_runs(name, tmp_path, nil4_path, nil4m_path, z2_path, run_python):
    pres = tmp_path / "prop3.txt"
    pres.write_text("gens: x y; rels: xy=y, xx=xxx; zeros: yx, yy")
    argv, forbidden = STARTUP[name]
    paths = {"pres": str(pres), "nil4": nil4_path, "nil4m": nil4m_path, "z2": z2_path}
    argv = [a.format(**paths) for a in argv]
    proc = run_python("-c", _LOADED, *argv)
    assert proc.returncode == 0, proc.stderr
    seen = json.loads(proc.stdout)
    assert seen["code"] == 0, proc.stderr
    assert not forbidden & set(seen["modules"]), seen["modules"]
    # only a subcommand that reads input files digests them
    assert seen["hashlib"] == any(a.startswith("{") for a in STARTUP[name][0])
    # records are plain classes, so no process pays for dataclasses and the inspect it imports
    assert not seen["dataclasses"] and not seen["inspect"]
