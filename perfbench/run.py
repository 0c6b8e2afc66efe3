"""Layered benchmark of zerocohom.

One workload, in this process, as a closed loop with one client:

    python3 perfbench/run.py --workload cohom --seed 1 --seconds 30 --trace 0

With ``--trace 0`` it repeats passes over the workload's fixed job list
for ``--seconds`` and prints the end-to-end metrics; with ``--trace 1``
it runs one untraced pass and two traced passes and prints the
per-layer metrics.  ``pass_s`` and ``setup_s`` are seconds at a fixed
reference speed (see ``reference_loop``); wall seconds are printed
beside them.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A wrong
answer in any job makes ``correct`` false and the exit code 1.

Every workload, each in a fresh process, untraced then traced:

    python3 perfbench/run.py --all --seed 1 --seconds 30

Quick smoke check (every workload once, one pass each, untraced):

    python3 perfbench/run.py --smoke
"""

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("cohom", "semilattice", "certify", "cli")
SETUP_REPEATS = 5
# reference_loop() seconds that define the reference speed of pass_s
REFERENCE_S = 0.008


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true", help="run every workload in fresh processes")
    ap.add_argument("--smoke", action="store_true", help="--all with one untraced pass each")
    args = ap.parse_args(argv)
    if not (args.workload or args.all or args.smoke):
        ap.error("one of --workload, --all or --smoke is required")
    return args


def percentile_summary(samples):
    """Median, the highest percentile with ten samples beyond it, count."""
    xs = sorted(samples)
    n = len(xs)
    line = f"median {statistics.median(xs):.4f}"
    if n >= 11:
        line += f"  p{100 * (n - 10) / n:.0f} {xs[n - 11]:.4f}"
    return line + f"  n={n}"


class Context:
    """What jobs need besides their inputs: the checkout and the tracer."""

    def __init__(self, workload, seed):
        self.root = ROOT
        self.src = SRC
        self.workdir = os.path.join(HERE, "_work", f"{workload}-s{seed}")
        self.tracer = None
        self.cli_stdout = {}

    def run_cli(self, argv):
        """One zerocohom process, run to completion; returns its stdout."""
        from workloads import Mismatch

        spans_path = os.path.join(self.workdir, "child-spans.json")
        if self.tracer is None:
            cmd = [sys.executable, "-m", "zerocohom.cli", *argv]
        else:
            cmd = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path, *argv]
        env = dict(os.environ, PYTHONPATH=self.src)
        t = time.perf_counter()
        proc = subprocess.run(cmd, cwd=self.root, env=env, capture_output=True, timeout=120)
        wall = time.perf_counter() - t
        err = proc.stderr.decode()
        if proc.returncode != 0:
            raise Mismatch(f"zerocohom {' '.join(argv)}: exit code {proc.returncode}: {err[-300:]}")
        if self.tracer is not None:
            elapsed = float(err.rsplit("elapsed:", 1)[1].strip().rstrip("s"))
            with open(spans_path) as fh:
                child = json.load(fh)
            os.remove(spans_path)
            self.tracer.merge(child["spans"], self.tracer.stack[-1])
            for name, value in child["counters"].items():
                if name == "abgroups.max_coeff_bits":
                    self.tracer.maximum(name, value)
                else:
                    self.tracer.add(name, value)
            self.tracer.add("cli.wall_s", wall)
            self.tracer.add("cli.elapsed_s", elapsed)
        return proc.stdout.decode()


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.job_s = []


def reference_loop(rounds=300):
    """Seconds taken by fixed integer row operations that allocate nothing.

    The VM this benchmark was built on runs the same code up to 40 %
    slower or faster for seconds to minutes at a time, depending on what
    other tenants do.  Timing this loop next to every job tracks that
    speed, so job times can be rescaled to a fixed reference speed.
    """
    a = list(range(1, 201))
    b = list(range(201, 401))
    t = time.perf_counter()
    for k in range(rounds):
        c = k % 7 + 1
        for j in range(200):
            a[j] = (a[j] + c * b[j]) % 1000003
    return time.perf_counter() - t


def run_pass(jobs, tally, tracer=None):
    """One pass over the job list.

    Returns the pass's wall seconds (the sum of its job times) and the
    same time rescaled to the reference speed: each job's time times
    REFERENCE_S over the reference loop timed just before the job.
    """
    from workloads import Mismatch

    wall = rescaled = 0.0
    for name, job in jobs:
        tally.attempted += 1
        ref = reference_loop()
        t = time.perf_counter()
        rec = tracer.begin("bench.job") if tracer else None
        try:
            job()
        except Mismatch as exc:
            tally.failed += 1
            tally.errors.append(f"{name}: {exc}")
        except Exception as exc:  # an uncaught exception is a failed job, not a crash
            tally.failed += 1
            tally.errors.append(f"{name}: uncaught {type(exc).__name__}: {exc}")
        finally:
            if rec:
                tracer.end(rec)
        dt = time.perf_counter() - t
        tally.job_s.append(dt)
        wall += dt
        rescaled += dt * REFERENCE_S / ref
    return wall, rescaled


def import_layers():
    """Import every layer module from the checkout; returns the seconds taken."""
    from tracer import LAYER_MODULES

    t = time.perf_counter()
    import zerocohom

    for name in ("catalog",) + LAYER_MODULES:
        importlib.import_module(f"zerocohom.{name}")
    import_s = time.perf_counter() - t
    if os.path.dirname(os.path.dirname(os.path.abspath(zerocohom.__file__))) != SRC:
        raise ImportError(f"zerocohom imported from {zerocohom.__file__}, not from {SRC}")
    return import_s


def run_workload(args):
    if not os.path.isfile(os.path.join(SRC, "zerocohom", "__init__.py")):
        print(f"no zerocohom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import_layers()
    import workloads

    ctx = Context(args.workload, args.seed)
    tally = Tally()
    try:
        if args.trace:
            result = measure_layers(args, ctx, tally, workloads)
        else:
            result = measure_end_to_end(args, ctx, tally, workloads)
    finally:
        shutil.rmtree(ctx.workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(ctx.workdir))
        except OSError:  # another run still uses it
            pass
    for err in tally.errors[:20]:
        print("FAILED", err)
    print(f"attempted {tally.attempted} jobs, failed {tally.failed}, "
          f"failed_frac {tally.failed / max(tally.attempted, 1):.4f} (fraction)")
    print(json.dumps({
        "correct": tally.failed == 0 and result["correct"],
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
    }))
    return 0 if tally.failed == 0 and result["correct"] else 1


def print_probe(probe):
    for name, size, outcome in probe:
        print(f"frontier {name} [{size}]: {outcome}")


def fresh_import_s():
    """Import time of the layer modules in a fresh interpreter, rescaled."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import run; ref = run.reference_loop(); "
            "print(run.import_layers() * run.REFERENCE_S / ref)")
    proc = subprocess.run([sys.executable, "-c", code, SRC, HERE], capture_output=True, text=True,
                          check=True, timeout=120)
    return float(proc.stdout)


def measure_end_to_end(args, ctx, tally, workloads):
    imports, builds = [], []
    for _ in range(SETUP_REPEATS):
        imports.append(fresh_import_s())
        ref = reference_loop()
        t = time.perf_counter()
        x = workloads.make_inputs(args.seed, ctx.workdir)
        builds.append((time.perf_counter() - t) * REFERENCE_S / ref)
    jobs = workloads.WORKLOADS[args.workload](x, ctx)
    print_probe(workloads.frontier_probe(x))
    passes, rescaled = [], []
    started = time.perf_counter()
    # start a pass only if it should end by the deadline
    while not passes or time.perf_counter() - started + passes[-1] <= args.seconds:
        wall, scaled = run_pass(jobs, tally)
        passes.append(wall)
        rescaled.append(scaled)
    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    metrics = {
        "pass_s": (statistics.median(rescaled), "s"),
        "setup_s": (statistics.median(i + b for i, b in zip(imports, builds)), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    print(f"workload {args.workload} seed {args.seed}: {len(jobs)} jobs per pass")
    print(f"pass_s      {percentile_summary(rescaled)} (s at the reference speed)")
    print(f"pass wall   {percentile_summary(passes)} (s)")
    print(f"job_s       {percentile_summary(tally.job_s)} (s)")
    print(f"setup_s     {metrics['setup_s'][0]:.4f} (s at the reference speed; fresh imports: "
          f"{percentile_summary(imports)}; input builds: {percentile_summary(builds)})")
    print(f"peak_rss_mb {metrics['peak_rss_mb'][0]:.1f} (MB)")
    return {"correct": True, "metrics": metrics}


def exact_counts(spans, root, counters):
    from tracer import self_times

    _, calls, _ = self_times(spans, {root})
    return {
        "abgroups.smith_normal_form.calls": calls["abgroups.smith_normal_form"],
        "abgroups.smith_normal_form.cells": counters.get("abgroups.smith_normal_form.cells", 0),
        "abgroups.solve_exact.calls": calls["abgroups.solve_exact"],
        "cohomology.coboundary_hom.nnz": counters.get("cohomology.coboundary_hom.nnz", 0),
        "cohomology.nerve.tuples": counters.get("cohomology.nerve.tuples", 0),
    }


def measure_layers(args, ctx, tally, workloads):
    """Untraced pass, then traced set-up, probe and two traced passes."""
    from layers import per_layer_metrics
    from tracer import Tracer

    x = workloads.make_inputs(args.seed, ctx.workdir)
    _, untraced = run_pass(workloads.WORKLOADS[args.workload](x, ctx), tally)

    tracer = ctx.tracer = Tracer().install(also=(workloads,))
    with tracer.span("bench.setup") as setup:
        x = workloads.make_inputs(args.seed, ctx.workdir)
    jobs = workloads.WORKLOADS[args.workload](x, ctx)
    with tracer.span("bench.probe") as probe_span:
        probe = workloads.frontier_probe(x)
        tracer.add("cohomology.cap_exceeded", sum(o.startswith("cap exceeded") for _, _, o in probe))
    print_probe(probe)
    before = tracer.new_phase()
    with tracer.span("bench.pass") as pass_a:
        _, traced = run_pass(jobs, tally, tracer)
    counts_a = tracer.new_phase()
    with tracer.span("bench.pass") as pass_b:
        run_pass(jobs, tally, tracer)
    counts_b = tracer.new_phase()

    exact_a = exact_counts(tracer.spans, pass_a[0], counts_a)
    exact_b = exact_counts(tracer.spans, pass_b[0], counts_b)
    same = exact_a == exact_b
    print(f"determinism: exact counts of two traced passes {'agree' if same else 'DIFFER'}")
    for k in exact_a:
        print(f"  {k}: {exact_a[k]} vs {exact_b[k]}")
    counters = dict(before)
    for k, v in counts_a.items():
        counters[k] = max(counters.get(k, 0), v) if k == "abgroups.max_coeff_bits" else counters.get(k, 0) + v
    roots = (setup[0], probe_span[0], pass_a[0])
    metrics = per_layer_metrics(tracer.spans, roots, counters, traced - untraced)
    print(f"untraced pass {untraced:.4f} s, traced pass {traced:.4f} s (at the reference speed)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:55s} {value:14.6g} {unit}")
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    tracer.dump(os.path.join(out_dir, f"trace-{args.workload}-s{args.seed}.json"),
                {"workload": args.workload, "seed": args.seed, "roots": roots})
    return {"correct": same, "metrics": metrics}


def run_all(args):
    """Every workload in its own fresh process, one after another."""
    seconds = 1 if args.smoke else args.seconds
    modes = (0,) if args.smoke else (0, 1)
    rows, ok = [], True
    for workload in WORKLOAD_NAMES:
        for trace in modes:
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{workload} trace={trace}: exit {proc.returncode}, no result\n{proc.stderr[-2000:]}")
                ok = False
                continue
            ok = ok and proc.returncode == 0 and result["correct"]
            frac = result["failed"] / result["attempted"]
            print(f"{workload} trace={trace}: correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} failed_frac={frac:.4f}")
            for name, m in result["metrics"].items():
                print(f"  {workload:12s} {name:55s} {m['value']:14.6g} {m['unit']}")
            rows.append({"workload": workload, "trace": trace, **result})
    out_dir = os.path.join(HERE, "_out")
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, f"all-s{args.seed}.json"), "w") as fh:
        json.dump(rows, fh, indent=1)
    return 0 if ok else 1


def main(argv=None):
    args = parse_args(argv)
    if args.all or args.smoke:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
