"""Per-layer metrics computed from a traced run.

Every layer that every workload reaches (set-up and the frontier probe
are traced too) reports its self seconds.  A layer that only some
workloads reach reports its self time as a share of the traced wall
time (unit ``%``) and its call count, so that a workload which never
calls it reads 0 % and 0 calls rather than a time of exactly zero.
README.md maps each metric to the end-to-end metric and workload it
should move.
"""

from tracer import LAYER_MODULES, self_times

# self seconds of layers that every workload reaches
SELF_SECONDS = {
    "abgroups.kernel_mod.s": "abgroups.kernel_mod",
    "abgroups.smith_normal_form.s": "abgroups.smith_normal_form",
    "abgroups.solve_exact.s": "abgroups.solve_exact",
    "abgroups.QuotientPresentation.build_s": "abgroups.QuotientPresentation.build",
    "abgroups.QuotientPresentation.coords_s": "abgroups.QuotientPresentation.coords",
    "cohomology.coboundary.s": "cohomology.coboundary",
    "cohomology.nerve.s": "cohomology.nerve",
    "cohomology.coboundary_hom.s": "cohomology.coboundary_hom",
    "cohomology.cohomology_group.s": "cohomology.cohomology_group",
    "modules.validate_module.s": "modules.validate_module",
    "presentations.enumerate_presentation.s": "presentations.enumerate_presentation",
    "semigroups.validate_table.s": "semigroups.validate_table",
    "partial.build_t_semigroup.s": "partial.build_t_semigroup",
}

CALLS = {
    "abgroups.smith_normal_form.calls": "abgroups.smith_normal_form",
    "abgroups.solve_exact.calls": "abgroups.solve_exact",
    "abgroups.QuotientPresentation.coords_calls": "abgroups.QuotientPresentation.coords",
    "cohomology.coboundary.calls": "cohomology.coboundary",
    "modules.validate_module.calls": "modules.validate_module",
    "cohomology.witness_report.calls": "cohomology.witness_report",
    "schur.equivalent.calls": "schur.equivalent",
}

COUNTS = (
    "abgroups.smith_normal_form.cells",
    "cohomology.nerve.tuples",
    "cohomology.coboundary_hom.nnz",
    "cohomology.coboundary_hom.cells",
    "brauer.enumerate_modifications.count",
    "schur.links",
    "cohomology.cap_exceeded",
)

# self time as a share of the traced wall time, for layers some workloads skip
SELF_SHARE = (
    "cohomology.witness_report",
    "schur.equivalent",
    "cohomology.brute_cohomology",
    "schur.brute_multiplier",
    "natsys.natsys_coboundary_hom",
    "natsys.hom_complex_compare",
    "brauer.enumerate_modifications",
    "schur.check_links_compose",
    "semigroups.rees_quotient",
)


def per_layer_metrics(spans, roots, counters, overhead_s):
    """Metrics name -> (value, unit) for the spans under ``roots``."""
    selfs, calls, via = self_times(spans, set(roots))
    wall = sum(spans[r][4] - spans[r][3] for r in roots)
    pct = lambda seconds: 100.0 * seconds / wall
    m = {name: (selfs[layer], "s") for name, layer in SELF_SECONDS.items()}
    m["abgroups.smith_normal_form.via_kernel_mod.s"] = (via["abgroups.kernel_mod"], "s")
    m["abgroups.smith_normal_form.via_solve_exact.s"] = (via["abgroups.solve_exact"], "s")
    m.update({name: (calls[layer], "count") for name, layer in CALLS.items()})
    m.update({name: (counters.get(name, 0), "count") for name in COUNTS})
    snf_calls = calls["abgroups.smith_normal_form"]
    m["abgroups.smith_normal_form.repeat_ratio"] = (
        counters.get("abgroups.smith_normal_form.repeats", 0) / max(snf_calls, 1), "ratio")
    m["abgroups.kernel_mod.pad_ratio"] = (
        counters.get("abgroups.kernel_mod.pad_cols", 0) / max(counters.get("abgroups.kernel_mod.cols", 0), 1),
        "ratio")
    m["abgroups.max_coeff_bits"] = (counters.get("abgroups.max_coeff_bits", 0), "bits")
    m.update({layer + ".pct": (pct(selfs[layer]), "%") for layer in SELF_SHARE})
    cli_wall = counters.get("cli.wall_s", 0.0)
    m["cli.processes"] = (calls["cli.process"], "count")
    m["cli.startup_pct"] = (100.0 * (cli_wall - counters.get("cli.elapsed_s", 0.0)) / cli_wall if cli_wall else 0.0, "%")
    for mod in LAYER_MODULES:
        own = sum(v for name, v in selfs.items() if name.split(".")[0] == mod)
        m[mod + ".self_pct"] = (pct(own), "%")
    m["trace.overhead_s"] = (overhead_s, "s")
    return m
