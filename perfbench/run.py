"""mdreps benchmark: closed-loop batches, one client, one process, no threads.

    python3 perfbench/run.py --workload verify-sweep --seed 1 --seconds 30 \
        --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Run from the repository root.  The package is imported from ``src/`` of the
checkout.  A run sets up its inputs again and again for a tenth of
``--seconds`` (``setup_s`` is the median set-up), then runs passes over
the workload's job list, one job after another, until the next pass would
end after ``--seconds``.  Every job's result goes through its exact
oracle.  The exit code is 1 when an answer is wrong or a job other than a
known-failing probe raises.

Times are at reference speed.  A fixed pure-Python kernel (``reference``,
which does not touch mdreps) runs between jobs, and each job's measured
time is scaled by ``REF_S`` over the kernel's time around it.  The speed a
shared host gives one process changes by up to twofold from one second to
the next, and the kernel slows with it.  A job's time is the median of its
scaled repetitions in the run; ``pass_s`` is the sum of those over the job
list.  The raw (unscaled) medians are printed above the result line.

With ``--trace 0`` the last stdout line is a JSON object carrying the
end-to-end metrics of BENCHMARK.json.  With ``--trace 1`` the run makes
untraced passes for the first half of its time and traced passes for the
rest, and reports the per-layer metrics of one traced set-up plus one traced
pass; the spans go to ``.bench_out/trace-<workload>-<seed>.jsonl``.
``--workload all`` runs each workload in its own process and prints a table.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_out")
SETUP_SHARE = 0.1  # of --seconds, spent repeating set-up
# The reference kernel's time on the reference box when nothing else runs
# (2.0 GHz Xeon vCPU, Python 3.11.7; its fastest time over a 50 s probe
# was 3.94 ms).  A scaled time is the time the same work takes at that
# speed.
REF_S = 0.004
# A job shorter than this shares the reference measurement that follows it
# with the jobs after it, so that short jobs do not double the pass time.
REF_GAP_S = 0.05

sys.path.insert(0, HERE)
import workloads  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402


def fresh_import():
    """Import mdreps (all nine modules) from src/ with empty module state."""
    for name in [m for m in sys.modules
                 if m == "mdreps" or m.startswith("mdreps.")]:
        del sys.modules[name]
    pkg = importlib.import_module("mdreps")
    importlib.import_module("mdreps.cli")
    if os.path.dirname(os.path.abspath(pkg.__file__)) != \
            os.path.join(SRC, "mdreps"):
        raise ImportError("mdreps imported from %s, not %s"
                          % (pkg.__file__, SRC))
    return pkg


def _kernel():
    # a product of two sparse bivariate polynomials with Fraction
    # coefficients held in a dict, as in mdreps' inner loops; about 4 ms
    p = {(i, j): Fraction(i - j, i + j + 1) for i in range(6) for j in range(6)}
    r = {}
    for (a, b), c in p.items():
        for (d, e), f in p.items():
            k = (a + d, b + e)
            r[k] = r.get(k, 0) + c * f


def reference():
    """(wall, cpu) seconds of the reference kernel: the median of three
    back-to-back runs, so that one interrupted run does not skew it."""
    walls, cpus = [], []
    for _ in range(3):
        t0, c0 = time.perf_counter(), time.process_time()
        _kernel()
        walls.append(time.perf_counter() - t0)
        cpus.append(time.process_time() - c0)
    return statistics.median(walls), statistics.median(cpus)


class Outcome:
    """One job execution.  ``bad`` marks a wrong answer, or a failure of a
    job that is not a known-failing probe.  ``ref_wall`` and ``ref_cpu`` are
    the mean reference times just before and just after the job."""

    __slots__ = ("label", "wall", "cpu", "ok", "bad", "error", "ref_wall",
                 "ref_cpu")

    def __init__(self, label, wall, cpu, ok, bad, error):
        self.label, self.wall, self.cpu = label, wall, cpu
        self.ok, self.bad, self.error = ok, bad, error
        self.ref_wall = self.ref_cpu = None

    def scaled(self, field):
        """The job's wall or cpu time at reference speed."""
        return getattr(self, field) * REF_S / getattr(self, "ref_" + field)


def _bracket(outcomes, before, after):
    for o in outcomes:
        o.ref_wall = (before[0] + after[0]) / 2
        o.ref_cpu = (before[1] + after[1]) / 2


def run_pass(jobs, pkg, isolated, tracer=None):
    """One pass over the job list; job time excludes oracle checks, the
    reference kernel and the fresh imports of isolated workloads."""
    out = []
    ref, pending = reference(), []
    ref_end = time.perf_counter()
    for job in jobs:
        if isolated:
            if tracer is not None:
                tracer.uninstall()
            pkg = fresh_import()
            gc.collect()  # the discarded modules, outside the job's time
            if tracer is not None:
                tracer.install(pkg)
        error = None
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            if tracer is None:
                result = job.run(pkg)
            else:
                with tracer.root(job.label):
                    result = job.run(pkg)
        except Exception as exc:  # a failed job is counted, not fatal
            result = None
            error = "".join(traceback.format_exception_only(type(exc), exc))
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        ok = False
        if error is None:
            try:
                ok = bool(job.check(result))
            except Exception as exc:  # an answer of unexpected shape
                error = "oracle: %r" % (exc,)
        if tracer is not None and job.measure is not None and error is None:
            for key, value in job.measure(result).items():
                tracer.counts[key] = tracer.counts.get(key, 0) + value
        pending.append(Outcome(job.label, wall, cpu, ok,
                               not ok and not job.probe, error))
        if time.perf_counter() - ref_end >= REF_GAP_S or job is jobs[-1]:
            nxt = reference()
            ref_end = time.perf_counter()
            _bracket(pending, ref, nxt)
            out += pending
            ref, pending = nxt, []
    return out


def run_passes(jobs, pkg, isolated, budget, tracer=None):
    """Passes until the next one would end after ``budget`` seconds (at least
    one).  Returns the list of passes and the seconds used."""
    start = time.perf_counter()
    passes, lengths = [], []
    while True:
        gc.collect()
        t0 = time.perf_counter()
        passes.append(run_pass(jobs, pkg, isolated, tracer))
        lengths.append(time.perf_counter() - t0)
        used = time.perf_counter() - start
        if used + statistics.median(lengths) > budget:
            return passes, used


def _agg_sum(aggs, names, field):
    return sum(getattr(aggs[n], field) for n in names if n in aggs)


def layer_metrics(aggs, counts):
    """Per-layer metrics from tracer aggregates (name -> _Agg) and counts."""
    def calls(*names):
        return _agg_sum(aggs, names, "calls")

    def self_s(*names):
        return _agg_sum(aggs, names, "self_s")

    def ratio(num, den):
        return num / den if den else 0.0

    rf_arith = ["scalar.RF." + op for op in
                ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__")]
    mul = ["matrix.ExactMatrix.__mul__", "matrix.ExactMatrix.__rmul__"]
    null = ["matrix.nullspace", "matrix.sparse_nullspace", "matrix.rank"]
    m = {}
    for layer in LAYERS:
        m[layer + ".self_s"] = sum(a.self_s for n, a in aggs.items()
                                   if n.startswith(layer + "."))
    m.update({
        "scalar.poly_gcd.calls": calls("scalar.poly_gcd"),
        "scalar.poly_gcd.self_s": self_s("scalar.poly_gcd"),
        "scalar.RF.arith.calls": calls(*rf_arith),
        "scalar.RF.arith.self_s": self_s(*rf_arith),
        "scalar.as_fraction.calls": calls("scalar.as_fraction"),
        "matrix.mul.calls": calls(*mul),
        "matrix.mul.self_s": self_s(*mul),
        "matrix.embed_at.calls": calls("matrix.embed_at"),
        "matrix.kron.calls": calls("matrix.kron"),
        "matrix.kron.self_s": self_s("matrix.kron"),
        "matrix.nullspace.calls": calls(*null),
        "matrix.nullspace.self_s": self_s(*null),
        "matrix.commutant_basis.self_s": self_s("matrix.commutant_basis"),
        "matrix.char_poly.calls": calls("matrix.char_poly"),
        "matrix.char_poly.self_s": self_s("matrix.char_poly"),
        "matrix.eigen_data.self_s": self_s("matrix.eigen_data"),
        "matrix.inverse.calls": calls("matrix.ExactMatrix.inverse"),
        "presentations.verify.calls": calls("presentations.verify"),
        "presentations.reports": counts.get("presentations.reports", 0),
        "presentations.nonzero_reports":
            counts.get("presentations.nonzero_reports", 0),
        "structure.decompose.self_s": self_s("structure.decompose"),
        "structure.commutant.self_s": self_s("structure.commutant"),
        "structure.find_idempotents.self_s":
            self_s("structure.find_idempotents"),
        "structure.x_trichotomy.self_s": self_s("structure.x_trichotomy"),
        "structure.minimal_polynomial.calls":
            calls("structure.minimal_polynomial"),
        "structure.minimal_polynomial.self_s":
            self_s("structure.minimal_polynomial"),
        "structure.generated_algebra.calls":
            calls("structure.generated_algebra"),
        "structure.generated_algebra.self_s":
            self_s("structure.generated_algebra"),
        "structure.generated_algebra.useful_ratio":
            ratio(counts.get("generated_algebra.basis", 0),
                  counts.get("generated_algebra.attempts", 0)),
        "structure.algebra_dims.self_s": self_s("structure.algebra_dims"),
        "structure.algebra_dims.spectrum_useful_ratio":
            ratio(counts.get("algebra_dims.split_center", 0),
                  counts.get("algebra_dims.char_poly", 0)),
        "ccwg.check_closure.calls": calls("ccwg.check_closure"),
        "ccwg.check_closure.self_s": self_s("ccwg.check_closure"),
        "cli.report_bytes": counts.get("cli.report_bytes", 0),
    })
    return m


def _snapshot(tracer):
    return ({n: (a.calls, a.self_s) for n, a in tracer.aggs.items()},
            dict(tracer.counts))


class _Sum:
    __slots__ = ("calls", "self_s")

    def __init__(self, calls, self_s):
        self.calls, self.self_s = calls, self_s


def _setup_plus_pass(setup, tracer, passes):
    """Aggregates of the traced set-up plus the mean traced pass."""
    s_aggs, s_counts = setup
    aggs = {}
    for name in set(s_aggs) | set(tracer.aggs):
        c0, t0 = s_aggs.get(name, (0, 0.0))
        a = tracer.aggs.get(name)
        c1, t1 = (a.calls, a.self_s) if a is not None else (0, 0.0)
        aggs[name] = _Sum(c0 + _per_pass(c1, passes), t0 + t1 / passes)
    counts = dict(s_counts)
    for key, value in tracer.counts.items():
        counts[key] = counts.get(key, 0) + _per_pass(value, passes)
    return aggs, counts


def _per_pass(count, passes):
    # every traced pass does the same work, so a count divides exactly
    return count // passes if count % passes == 0 else count / passes


def job_times(passes, field, scaled=True):
    """Each job's median time over the passes, at reference speed unless
    ``scaled`` is false."""
    return [statistics.median(p[i].scaled(field) if scaled
                              else getattr(p[i], field) for p in passes)
            for i in range(len(passes[0]))]


def summarize(passes, scaled=True):
    """End-to-end metrics of a list of untraced passes."""
    walls = sorted(job_times(passes, "wall", scaled))
    jobs = [o for p in passes for o in p]
    return {
        "pass_s": sum(walls),
        "job_s_p50": statistics.median(walls),
        "job_s_p90": statistics.quantiles(walls, n=10, method="inclusive")[8]
        if len(walls) > 1 else walls[0],
        "pass_cpu_s": sum(job_times(passes, "cpu", scaled)),
        "fail_ratio": sum(not o.ok for o in jobs) / len(jobs),
    }


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def emit(metrics, specs, passes, extra_lines=()):
    jobs = [o for p in passes for o in p]
    failed = sum(not o.ok for o in jobs)
    for line in extra_lines:
        print(line)
    seen = set()
    for o in jobs:
        if not o.ok and o.label not in seen:
            seen.add(o.label)
            reason = o.error.strip() if o.error else "wrong answer"
            print("FAILED  %s: %s" % (o.label, reason))
    out = {}
    for spec in specs:
        out[spec["name"]] = {"value": metrics[spec["name"]],
                             "unit": spec["unit"]}
    correct = not any(o.bad for o in jobs)
    print(json.dumps({"correct": correct, "attempted": len(jobs),
                      "failed": failed, "metrics": out}))
    return correct


def run_workload(name, seed, seconds, trace):
    setup_fn, isolated = workloads.WORKLOADS[name]
    spec = load_spec()
    os.makedirs(WORK, exist_ok=True)
    start = time.perf_counter()
    setup_times, scaled_setups = [], []
    tracer = Tracer() if trace else None
    ref = reference()
    while not setup_times or not trace and \
            time.perf_counter() - start < SETUP_SHARE * seconds:
        gc.collect()
        t0 = time.perf_counter()
        pkg = fresh_import()
        if tracer is None:
            jobs = setup_fn(pkg, seed, WORK)
        else:
            tracer.install(pkg)
            with tracer.root("set-up"):
                jobs = setup_fn(pkg, seed, WORK)
            tracer.uninstall()
        setup_times.append(time.perf_counter() - t0)
        nxt = reference()
        scaled_setups.append(setup_times[-1] * REF_S / ((ref[0] + nxt[0]) / 2))
        ref = nxt
    budget = seconds - (time.perf_counter() - start)
    if not trace:
        passes, _ = run_passes(jobs, pkg, isolated, budget)
        m = summarize(passes)
        m["setup_s"] = statistics.median(scaled_setups)
        m["peak_rss_mb"] = \
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        raw = summarize(passes, scaled=False)
        raw["setup_s"] = statistics.median(setup_times)
        lines = ["%-12s %14.6f %s" % (k, m[k], u) + (
                 "   raw %.6f" % raw[k] if k in raw and u == "s" else "")
                 for k, u in
                 (("pass_s", "s"), ("job_s_p50", "s"), ("job_s_p90", "s"),
                  ("pass_cpu_s", "s"), ("fail_ratio", "1"), ("setup_s", "s"),
                  ("peak_rss_mb", "MB"))]
        lines.append("workload %s seed %s: %d passes of %d jobs; times are "
                     "each job's median of %d at reference speed, "
                     "percentiles are over the %d jobs; setup_s is the "
                     "median of %d set-ups"
                     % (name, seed, len(passes), len(jobs), len(passes),
                        len(jobs), len(setup_times)))
        return emit(m, spec["end_to_end"], passes, lines)
    setup = _snapshot(tracer)
    tracer.reset()
    plain, used = run_passes(jobs, pkg, isolated, budget / 2)
    if not isolated:
        tracer.install(pkg)
    traced, _ = run_passes(jobs, pkg, isolated, budget - used, tracer)
    tracer.uninstall()
    aggs, counts = _setup_plus_pass(setup, tracer, len(traced))
    m = layer_metrics(aggs, counts)
    m["trace.overhead_s"] = sum(job_times(traced, "wall")) - \
        sum(job_times(plain, "wall"))
    path = os.path.join(WORK, "trace-%s-%s.jsonl" % (name, seed))
    tracer.write_spans(path)
    with open(os.path.join(WORK, "layers-%s-%s.json" % (name, seed)),
              "w") as fh:
        json.dump({"per_pass": {n: {"calls": a.calls, "self_s": a.self_s}
                                for n, a in sorted(aggs.items())},
                   "counts": counts, "traced_passes": len(traced)}, fh,
                  indent=1, sort_keys=True)
    lines = ["%-45s %s" % (s["name"], m[s["name"]]) for s in spec["per_layer"]]
    lines.append("workload %s seed %s: %d untraced + %d traced passes; "
                 "spans in %s" % (name, seed, len(plain), len(traced),
                                  os.path.relpath(path, ROOT)))
    return emit(m, spec["per_layer"], plain + traced, lines)


def run_all(seed, seconds, trace):
    """Each workload in its own process, one after another."""
    rows, status = [], 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, os.path.abspath(__file__),
                               "--workload", name, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace",
                               str(trace)],
                              stdout=subprocess.PIPE, text=True, timeout=600)
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        try:
            res = json.loads(lines[-1])
        except (IndexError, ValueError):  # the child died before its result
            status = 1
            continue
        if proc.returncode or not res["correct"]:
            status = 1
        rows.append((name, res))
    print()
    for name, res in rows:
        print("%s: correct=%s attempted=%d failed=%d"
              % (name, res["correct"], res["attempted"], res["failed"]))
        metrics = dict(res["metrics"],
                       fail_ratio={"value": res["failed"] / res["attempted"],
                                   "unit": "1"})
        for key, val in metrics.items():
            print("    %-45s %14.6f %s" % (key, val["value"], val["unit"]))
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(SRC, "mdreps", "__init__.py")):
        print("error: no mdreps sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    correct = run_workload(args.workload, args.seed, args.seconds, args.trace)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
