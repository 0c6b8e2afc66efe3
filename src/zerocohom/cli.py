"""Command-line workbench.

One structured JSON report per invocation on stdout (byte-stable for
identical inputs: no timestamps in the payload; timing goes to stderr).
Exit codes: 0 success, 1 oracle mismatch, 2 input error, 3 cap exceeded.

Each subcommand imports the package modules it runs inside its own
function, so a process loads only those (``enumerate``, ``gown``,
``tsemigroup`` and ``tsubsets`` load neither the abelian-group nor the
cohomology layer), and the timing on stderr includes them.
"""

import argparse
import io
import json
import sys
import time

from . import VARIANTS, __version__
from .errors import CapExceeded, InvalidModule, TableError, ZerocohomError


def _read(path, inputs=None):
    """The text of the file at ``path``, read once; ``inputs`` records the sha256 prefix of its bytes."""
    with open(path, "rb") as fh:
        data = fh.read()
    if inputs is not None:
        import hashlib

        inputs[path] = hashlib.sha256(data).hexdigest()[:16]
    return io.TextIOWrapper(io.BytesIO(data)).read()


class _Document(dict):
    """A JSON object read from a file: a missing field is an input error naming the field and the file."""

    __slots__ = ("path",)

    def __missing__(self, field):
        raise ValueError(f"{self.path} has no field {field!r}")


def _read_object(path, inputs=None):
    doc = json.loads(_read(path, inputs))
    if not isinstance(doc, dict):
        raise ValueError(f"{path} must hold a JSON object, not a {type(doc).__name__}")
    doc = _Document(doc)
    doc.path = path
    return doc


def _integers(values):
    """True for a list of ints; JSON's true/false and floats are not ints here."""
    return isinstance(values, list) and all(type(x) is int for x in values)


def load_semigroup(path, inputs=None):
    from .semigroups import from_named_table

    doc = _read_object(path, inputs)
    elements, table = doc["elements"], doc["table"]
    if not (isinstance(elements, list) and isinstance(table, list) and all(isinstance(r, list) for r in table)):
        raise TableError("a semigroup needs a list of elements and a table given as a list of rows")
    return from_named_table(elements, table, doc.get("zero"))


def _coefficients(doc):
    from .abgroups import FinAbGroup

    factors = doc["invariant_factors"]
    if not _integers(factors):
        raise InvalidModule(factors, "invariant_factors must be a list of integers")
    return FinAbGroup(factors)


def load_coefficients(path, inputs=None):
    return _coefficients(_read_object(path, inputs))


def load_module(path, S, inputs=None):
    from .abgroups import IntMatrix
    from .modules import ZeroModule

    doc = _read_object(path, inputs)
    A = _coefficients(doc)
    k = A.rank

    def read_action(field):
        if not isinstance(doc[field], dict):
            raise InvalidModule(doc[field], f"{field} must map element names to matrices")
        action = {}
        for name, rows in doc[field].items():
            if not (isinstance(rows, list) and all(_integers(r) for r in rows)):
                raise InvalidModule(name, f"{field} matrix must be a list of rows of integers")
            widths = {len(r) for r in rows} or {0}
            if len(rows) != k or widths != {k}:
                if len(widths) == 1:
                    shape = f"{len(rows)}x{min(widths)}"
                else:
                    shape = f"{len(rows)} rows of widths {sorted(widths)}"
                raise InvalidModule(name, f"{field} matrix is {shape}, expected {k}x{k}")
            action[S.index(name)] = IntMatrix(k, k, rows)
        return action
    left = read_action("action") if "action" in doc else None
    right = read_action("right_action") if "right_action" in doc else None
    if left is None:
        # no action means the trivial one, on the right action's domain when there is one
        left = {s: IntMatrix.identity(k) for s in (range(S.order) if right is None else right)}
    return ZeroModule(S, A, left, right)


def dump_semigroup(S):
    return {
        "elements": list(S.elements),
        "zero": S.elements[S.zero] if S.zero is not None else None,
        "table": [[S.elements[x] for x in row] for row in S.table],
    }


def group_payload(G):
    return {"invariant_factors": list(G.invariants()), "pretty": str(G)}


def cochain_payload(S, f):
    return {
        "/".join(S.elements[i] for i in t): list(v) for t, v in sorted(f.values.items())
    }


def _semilattice_payload(sl, key_name):
    # from_restrictions has checked that the links compose, or raised
    payload = {"component_count": len(sl.indices), "components": [], "links_compose": True}
    for k in sl.indices:
        payload["components"].append(
            {
                key_name: sorted(k),
                "group": group_payload(sl.components[k]),
            }
        )
    return payload


def cmd_validate(args, inputs):
    from .semigroups import ideals, predicates

    S = load_semigroup(args.semigroup, inputs)
    p = predicates(S)
    return {
        "order": S.order,
        "has_zero": p.has_zero,
        "is_monoid": p.is_monoid,
        "categorical_at_zero": p.categorical_at_zero,
        "zero_cancellative": p.zero_cancellative,
        "ideal_count": len(ideals(S)),
    }


def cmd_cohom(args, inputs):
    from .cohomology import brute_cohomology, cohomology_group

    S = load_semigroup(args.semigroup, inputs)
    M = load_module(args.module, S, inputs)
    H = cohomology_group(S, M, args.degree, args.variant)
    result = {
        "degree": args.degree,
        "variant": args.variant,
        "group": group_payload(H.group),
        "witnesses": [cochain_payload(S, w) for w in H.witnesses],
    }
    if args.oracle:
        slow = brute_cohomology(S, M, args.degree, args.variant)
        result["oracle"] = group_payload(slow)
        result["oracle_match"] = slow.invariants() == H.group.invariants()
    return result


def cmd_schur(args, inputs):
    from .schur import brute_multiplier, multipliers_agree, schur_multiplier

    S = load_semigroup(args.semigroup, inputs)
    A = load_coefficients(args.module, inputs)
    sl = schur_multiplier(S, A)
    result = _semilattice_payload(sl, "ideal")
    for entry, I in zip(result["components"], sl.indices):
        entry["ideal"] = sorted(S.elements[i] for i in I)
    if args.oracle:
        br = brute_multiplier(S, A)
        rep = multipliers_agree(sl, br)
        result["oracle_match"] = rep["ok"]
    return result


def cmd_brauer(args, inputs):
    from .brauer import brauer_class_count_bridge, brauer_monoid

    sl = brauer_monoid(args.q, args.n)
    result = _semilattice_payload(sl, "zero_pattern")
    if args.oracle:
        bridge = brauer_class_count_bridge(args.q, args.n)
        result["oracle_match"] = all(c == h for c, h in bridge.values())
        result["oracle_classes"] = {
            str(sorted(p)): {"weak_cocycle_classes": c, "h2_order": h}
            for p, (c, h) in sorted(bridge.items(), key=lambda kv: sorted(kv[0]))
        }
    return result


def cmd_modifications(args, inputs):
    from .brauer import enumerate_modifications, modification_structure
    from .catalog import named_group

    G = named_group(args.group)
    mods = enumerate_modifications(G)
    out = []
    for m in mods:
        units, non_units, nil_class, zero_canc = modification_structure(m)
        out.append(
            {
                "zero_pattern": sorted([list(G.elements[x] for x in p) for p in m.pattern]),
                "units": sorted(G.elements[u] for u in units),
                "nilpotent_class": nil_class,
                "zero_cancellative": zero_canc,
            }
        )
    return {"group": args.group, "count": len(mods), "modifications": out}


def cmd_gown(args, inputs):
    from .presentations import format_presentation, gown_presentation, gown_sequences, parse_presentation

    if bool(args.presentation) == bool(args.semigroup):
        raise ValueError("gown takes exactly one of --presentation and --semigroup")
    if args.presentation:
        P = parse_presentation(_read(args.presentation, inputs))
        G = gown_presentation(P) if args.bound is None else gown_presentation(P, args.bound)
        return {"gown_presentation": format_presentation(G)}
    S = load_semigroup(args.semigroup, inputs)
    bound = 4 if args.bound is None else args.bound
    classes = gown_sequences(S, bound)
    return {
        "length_bound": bound,
        "class_count": len(classes.classes),
        "classes": [
            sorted("/".join(S.elements[i] for i in seq) for seq in c)
            for c in classes.classes
        ],
    }


def cmd_enumerate(args, inputs):
    from .presentations import Truncated, enumerate_presentation, parse_presentation

    P = parse_presentation(_read(args.presentation, inputs))
    E = enumerate_presentation(P, args.bound, args.mode)
    if isinstance(E, Truncated):
        first = ", ".join(E.discovered[:20])
        if E.limit == "node budget":
            raise CapExceeded(
                f"word graph nodes (node budget reached with {E.found} normal forms found, first: {first})",
                E.node_budget + 1,
                E.node_budget,
            )
        raise CapExceeded(f"normal forms found (first: {first})", E.found, args.bound)
    return {
        "order": E.semigroup.order,
        "semigroup": dump_semigroup(E.semigroup),
        "normal_forms": list(E.semigroup.elements),
    }


def cmd_tsubsets(args, inputs):
    from .catalog import named_group
    from .partial import enumerate_t_subsets

    G = named_group(args.group)
    subsets = enumerate_t_subsets(G)
    return {
        "group": args.group,
        "count": len(subsets),
        "subsets": [
            sorted(f"({G.elements[x]},{G.elements[y]})" for x, y in s) for s in subsets
        ],
    }


def cmd_tsemigroup(args, inputs):
    from .partial import build_t_semigroup

    data = build_t_semigroup()
    dec = data.decomposition
    return {
        "order": data.semigroup.order,
        "unit_group_order": len(data.unit_indices),
        "unit_group_abelian": False,
        "ideal_size": len(data.ideal_indices),
        "rees": {
            "group_order": dec.group.order,
            "rows": dec.rows,
            "cols": dec.cols,
            "sandwich": [
                ["0" if x is None else dec.group.elements[x] for x in row]
                for row in dec.sandwich
            ],
        },
    }


def _natural_system(args, inputs):
    """The semigroup and its natural system: from --module, else trivial Z."""
    from .natsys import from_zero_module, trivial_Z

    S = load_semigroup(args.semigroup, inputs)
    if not args.module:
        return S, trivial_Z(S)
    M = load_module(args.module, S, inputs)
    return S, from_zero_module(M)


def cmd_natsys(args, inputs):
    from .natsys import natsys_cohomology

    S, D = _natural_system(args, inputs)
    H = natsys_cohomology(S, D, args.degree)
    coefficients = "zero-module" if args.module else "trivial-Z"
    return {"degree": args.degree, "coefficients": coefficients, "group": group_payload(H)}


def cmd_compare_thm14(args, inputs):
    from .natsys import hom_complex_compare

    S, D = _natural_system(args, inputs)
    report = hom_complex_compare(S, D, args.degree)
    result = {
        "naturality": report["naturality"],
        "differentials_equal": report["differentials"],
        "groups": [{"degree": i, "group": list(h)} for i, h in enumerate(report["groups"])],
        "match": report["ok"],
    }
    if not report["ok"]:
        raise OracleMismatch(result)
    return result


class OracleMismatch(Exception):
    def __init__(self, payload):
        self.payload = payload
        super().__init__("oracle mismatch")


def build_parser():
    ap = argparse.ArgumentParser(prog="zerocohom", description=__doc__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add(subparsers, name, fn, **arguments):
        p = subparsers.add_parser(name)
        p.set_defaults(fn=fn, oracle=False)
        for flag, kw in arguments.items():
            p.add_argument(flag, **kw)
        return p

    add(sub, "validate", cmd_validate, **{"--semigroup": dict(required=True)})
    # commands with a brute-force cross-check, which only `oracle <name>` runs
    checked = {
        "cohom": (
            cmd_cohom,
            {
                "--semigroup": dict(required=True),
                "--module": dict(required=True),
                "--degree": dict(type=int, required=True),
                "--variant": dict(choices=VARIANTS, default="zero"),
            },
        ),
        "schur": (cmd_schur, {"--semigroup": dict(required=True), "--module": dict(required=True)}),
        "brauer": (cmd_brauer, {"--q": dict(type=int, required=True), "--n": dict(type=int, required=True)}),
    }
    for name, (fn, arguments) in checked.items():
        add(sub, name, fn, **arguments)
    add(sub, "modifications", cmd_modifications, **{"--group": dict(required=True)})
    add(
        sub,
        "gown",
        cmd_gown,
        **{
            "--presentation": dict(),
            "--semigroup": dict(),
            "--bound": dict(type=int),
        },
    )
    add(
        sub,
        "enumerate",
        cmd_enumerate,
        **{
            "--presentation": dict(required=True),
            "--bound": dict(type=int, default=64),
            "--mode": dict(choices=["semigroup", "monoid"], default="semigroup"),
        },
    )
    add(sub, "tsubsets", cmd_tsubsets, **{"--group": dict(required=True)})
    add(sub, "tsemigroup", cmd_tsemigroup)
    add(
        sub,
        "natsys",
        cmd_natsys,
        **{
            "--semigroup": dict(required=True),
            "--module": dict(),
            "--degree": dict(type=int, required=True),
        },
    )
    add(
        sub,
        "compare-thm14",
        cmd_compare_thm14,
        **{
            "--semigroup": dict(required=True),
            "--module": dict(),
            "--degree": dict(type=int, default=2),
        },
    )
    oracle = sub.add_parser("oracle")
    osub = oracle.add_subparsers(dest="oracle_command", required=True)
    for name, (fn, arguments) in checked.items():
        add(osub, name, fn, **arguments).set_defaults(oracle=True)
    return ap


def execute(argv):
    ap = build_parser()
    args = ap.parse_args(argv)
    started = time.monotonic()
    inputs = {}
    command = args.command if args.command != "oracle" else f"oracle {args.oracle_command}"
    try:
        result = args.fn(args, inputs)
    except OracleMismatch as exc:
        _emit(command, argv, inputs, exc.payload)
        print("oracle mismatch", file=sys.stderr)
        return 1
    except CapExceeded as exc:
        print(f"cap exceeded: {exc}", file=sys.stderr)
        return 3
    except (ZerocohomError, OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    if args.oracle and result.get("oracle_match") is False:
        _emit(command, argv, inputs, result)
        print("oracle mismatch", file=sys.stderr)
        return 1
    _emit(command, argv, inputs, result)
    print(f"elapsed: {time.monotonic() - started:.3f}s", file=sys.stderr)
    return 0


def _emit(command, argv, inputs, result):
    witnesses = result.pop("witnesses", None) if isinstance(result, dict) else None
    report = {
        "command": command,
        "argv": list(argv),
        "inputs": inputs,
        "result": result,
        "witnesses": witnesses,
        "version": __version__,
    }
    print(json.dumps(report, sort_keys=True, indent=2))


def main():
    sys.exit(execute(sys.argv[1:]))


if __name__ == "__main__":
    main()
