"""The four mdreps benchmark workloads: seeded job lists with exact oracles.

Each ``setup_*`` function takes a freshly imported ``mdreps`` package, the
workload seed and a scratch directory, and returns the job list of one pass.
The seed drives only the generated inputs (transforms, conjugating matrices,
scale factors, random CCwg matrices) and the ``rng=`` objects handed to the
program; every expected answer holds for every seed.

A job's ``run(pkg)`` looks its functions up on ``pkg`` at call time, so the
tracer's wrappers are seen when they are installed.  ``check(result)`` is
the oracle.  A ``probe`` job is an input the program is known to mishandle
(ROADMAP item 5): it counts as failed while it raises, and as passed once it
returns an exit code of the 0/1/2 contract.
"""

import contextlib
import hashlib
import io
import json
import os
import random
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))


class Job:
    """``measure(result)``, if given, returns counts that a traced pass adds
    to its per-layer metrics."""

    __slots__ = ("label", "run", "check", "probe", "measure")

    def __init__(self, label, run, check, probe=False, measure=None):
        self.label = label
        self.run = run
        self.check = check
        self.probe = probe
        self.measure = measure


def _rng(seed, *salt):
    """An independent, reproducible stream for one use of the seed."""
    return random.Random("%s/%s" % (seed, "/".join(str(s) for s in salt)))


# ---------------------------------------------------------------------------
# verify-sweep: symbolic relation verification (criterion 1 traffic)

_CHEAP_TRANSFORMS = ("identity", "swap_rs", "transpose", "global_sign",
                     "antidiagonal")
# The conic cases are the slowest jobs (0.4-1.2 s at n=3).  A cheap
# transform moves one of them by up to 20 %, so they run untransformed.
_CONIC = ("case6a", "case6b", "case6c")
# Of the conic cases only case6a runs at n=3.  case6b and case6c would more
# than double a pass; without them, and with a quarter of the non-conic
# cases at n=4, a 30 s run repeats every job ten times or more.  case6a
# spends two thirds of its time in poly_gcd, which keeps poly_gcd the
# costliest single scalar function of a pass.
_SKIPPED_AT_3 = ("case6b", "case6c")
# local_conj on these costs 0.08-0.18 s at n=3 for every A that
# _small_invertible draws, below the conic cases
_LOCAL_CONJ_CASES = (("case2", {}), ("case7-aslash", {"sign": -1}),
                     ("case7-fglue", {"sign": 1}))
_BROKEN_CASES = (("case2", {}), ("case3", {}), ("case7-fglue", {"sign": 1}))


def _label(case, kw):
    return case + "".join("[%s=%s]" % item for item in sorted(kw.items()))


def _expect_all_zero(rel_ids):
    def check(reports):
        return [r.relation for r in reports] == rel_ids \
            and all(r.is_zero for r in reports)
    return check


def _expect_invol_s(rel_ids, value):
    """A pair whose S is scaled by c fails exactly the s-involutions, each
    with witness value c^2 - 1 on the diagonal."""
    bad = [r for r in rel_ids if r.startswith("invol_s[")]

    def check(reports):
        if [r.relation for r in reports] != rel_ids:
            return False
        failing = [r for r in reports if not r.is_zero]
        return [r.relation for r in failing] == bad and all(
            r.witness[0] == r.witness[1] and r.witness[2] == value
            for r in failing)
    return check


def _small_invertible(pkg, rng):
    """A = [[a, 0], [c, d]] with a, c, d = +-1.  Of the 48 invertible A with
    entries in -1..1 these 8 cost the same to within 25 % on each
    _LOCAL_CONJ_CASES pair; over all 48 one pair's cost ranges from
    0.015 s to 0.9 s, so the pass time would follow the seed."""
    a, c, d = (rng.choice((-1, 1)) for _ in range(3))
    return pkg.matrix.ExactMatrix.from_rows([[a, 0], [c, d]], N=2)


def setup_verify_sweep(pkg, seed, workdir):
    cat = pkg.catalog
    md = pkg.presentations.MIXED_DOUBLES
    rng = _rng(seed, "verify-sweep")
    rel_ids = {n: [r[0] for r in md.relations(n)] for n in (3, 4)}
    pairs = {(case, tuple(sorted(kw.items()))):
             cat.make_md_pair(case, check=False, **kw)
             for case, kw in cat.ALL_CASES}

    def verify_job(label, pair, n, check):
        return Job(label, lambda pkg: pkg.presentations.verify(
            pair, pkg.presentations.MIXED_DOUBLES, n), check)

    # every case but case6b/c at n=3, and every fourth non-conic case at
    # n=4.  A conic case costs 1.5-5 s at n=4, a non-conic one about 0.1 s.
    level3 = [cw for cw in cat.ALL_CASES if cw[0] not in _SKIPPED_AT_3]
    level4 = [cw for cw in cat.ALL_CASES if cw[0] not in _CONIC][::4]
    jobs = []
    for n, cases in ((3, level3), (4, level4)):
        for case, kw in cases:
            kind = "identity" if case in _CONIC \
                else rng.choice(_CHEAP_TRANSFORMS)
            pair = pairs[case, tuple(sorted(kw.items()))]
            if kind != "identity":
                pair = cat.apply_transform(cat.Transform(kind), pair)
            jobs.append(verify_job("verify %s+%s n=%d" % (_label(case, kw),
                                                          kind, n),
                                   pair, n, _expect_all_zero(rel_ids[n])))
    for case, kw in _LOCAL_CONJ_CASES:
        A = _small_invertible(pkg, rng)
        pair = cat.apply_transform(cat.Transform("local_conj", A),
                                   pairs[case, tuple(sorted(kw.items()))])
        jobs.append(verify_job("verify %s+local_conj n=3" % _label(case, kw),
                               pair, 3, _expect_all_zero(rel_ids[3])))
    for case, kw in _BROKEN_CASES:
        c = Fraction(0)
        while c in (0, 1, -1):
            c = Fraction(rng.choice((-1, 1)) * rng.randint(1, 7),
                         rng.randint(1, 5))
        base = pairs[case, tuple(sorted(kw.items()))]
        pair = pkg.matrix.RepPair(base.R, base.S.scale(c), params=base.params,
                                  constraints=base.constraints,
                                  provenance=base.provenance + "+scaled")
        jobs.append(verify_job("verify %s+S*(%s) n=3" % (_label(case, kw), c),
                               pair, 3,
                               _expect_invol_s(rel_ids[3],
                                               pkg.scalar.rf(c * c - 1))))
    return jobs


# ---------------------------------------------------------------------------
# decompose-point: exact structure analysis at rational points (criterion 6)

def setup_decompose_point(pkg, seed, workdir):
    st = pkg.structure
    cat = pkg.catalog
    Poly, NV, rf = pkg.scalar.Poly, pkg.scalar.NonVanishing, pkg.scalar.rf
    agp = cat.analysis_pair("a-glue", p=2, q=5)
    zv, xv = Fraction(-1, 3), Fraction(-2, 3)
    # analysis_pair("antislash", ...) without its level-3 relation check,
    # which is verify-sweep's work and would dominate this set-up
    asp = cat.make_md_pair("case6a", eps=-1, z=zv, x=xv, check=False)
    fgp = cat.analysis_pair("f-glue", p=2, q=5).evaluate({"p": 2, "q": 5})
    # the rng of criterion 6, so that set-up work does not vary with the seed
    summands3 = st.decompose(agp, 3, rng=random.Random(99)).summands

    def decompose_job(label, pair, n, dims, status, extra=None):
        def check(rep):
            return rep.dims() == dims and all(
                s["status"] == status for s in rep.summands) \
                and (extra is None or extra(rep))
        return Job(label, lambda pkg: pkg.structure.decompose(
            pair, n, rng=_rng(seed, label)), check)

    lam, lam_inv = -2 * zv + 1 + 2 * xv, -2 * zv + 1 - 2 * xv
    spectrum3 = sorted(str(rf(v)) for v in (1, lam, lam_inv))

    def antislash_spectra(rep):
        return all(sorted(v for v, _, _ in s["x_spectrum"]) == spectrum3
                   for s in rep.summands if s["dim"] == 3)

    jobs = [decompose_job("decompose a-glue n=3", agp, 3, [4, 4],
                          "indecomposable"),
            decompose_job("decompose a-glue n=4", agp, 4, [8, 8],
                          "indecomposable"),
            decompose_job("decompose antislash n=3", asp, 3, [1, 1, 3, 3],
                          "irreducible", antislash_spectra)]
    for k, s in enumerate(summands3):
        label = "algebra_dims a-glue n=3 summand %d" % k
        jobs.append(Job(
            label,
            lambda pkg, gens=s["generators"], label=label:
                pkg.structure.algebra_dims(gens, rng=_rng(seed, label)),
            lambda ad: (ad["dim"], ad["radical"], sorted(ad["simples"]))
            == (9, 3, [1, 1, 2])))
    jobs.append(Job("semisimple_quotient_dims a-glue n=4",
                    lambda pkg: pkg.structure.semisimple_quotient_dims(agp, 4),
                    lambda dims: dims == [1, 1, 1, 1, 3, 3, 3, 3]))
    # f-glue at n=5 (1.3 s) is left out, so that a 30 s run repeats every
    # job ten times or more
    for n in (3, 4):
        mats = [M for _, M in fgp.generator_images(n)]
        label = "commutant+find_idempotents f-glue n=%d" % n

        def fglue(pkg, mats=mats, label=label):
            com = pkg.structure.commutant(mats)
            return com, pkg.structure.find_idempotents(
                com, rng=_rng(seed, label))
        jobs.append(Job(label, fglue, lambda out, st=st:
                        st.fglue_commutant_shape_ok(out[0].basis)
                        and out[1]["kind"] == "indecomposable"))
    p, q, t = Poly.var("p"), Poly.var("q"), Poly.var("t")
    symbolic = (
        ("f-glue", cat.analysis_pair("f-glue"), NV(["p", "q", q - p, p + q]),
         6),
        ("a-glue", cat.analysis_pair("a-glue"), NV(["p", "q", q - p]), 4),
        ("antislash", cat.make_md_pair("case6a", eps=-1, t="t", check=False),
         NV(["t", t - Poly.const(1), t + Poly.const(1)]), 6))
    for name, pair, nv, dim in symbolic:
        mats = [M for _, M in pair.generator_images(3)]
        jobs.append(Job("commutant %s symbolic n=3" % name,
                        lambda pkg, mats=mats, nv=nv:
                            pkg.structure.commutant(mats, nv),
                        lambda com, dim=dim: com.dim == dim))
    return jobs


# ---------------------------------------------------------------------------
# ccwg-closure: many small constant matrices (criterion 8)

_SHAPES = ((2, 2), (2, 3), (3, 2))
_CLOSURES_PER_SHAPE = 50
_SPLIT_CASES = ((2, 1, 1), (2, 2, 1), (2, 2, 2), (2, 3, 2), (3, 1, 1),
                (3, 2, 2))


def setup_ccwg_closure(pkg, seed, workdir):
    cc = pkg.ccwg
    rng = _rng(seed, "ccwg-closure")
    jobs = []
    for N, n in _SHAPES:
        for k in range(_CLOSURES_PER_SHAPE):
            A, B = cc.random_ccwg(N, n, rng), cc.random_ccwg(N, n, rng)
            jobs.append(Job("check_closure (%d,%d) #%d" % (N, n, k),
                            lambda pkg, A=A, B=B: pkg.ccwg.check_closure(A, B),
                            lambda rep: rep["ok"] and rep["K_multiplicative"]))
    for N, n in _SHAPES:
        label = "glue_nilpotency (%d,%d)" % (N, n)
        length = len(cc.compositions(N, n))
        jobs.append(Job(label,
                        lambda pkg, N=N, n=n, label=label:
                            pkg.ccwg.glue_nilpotency(N, n,
                                                     rng=_rng(seed, label)),
                        lambda out, length=length:
                            out["chain_length"] == length
                            and out["witness_power_Lminus1_nonzero"]))
    for N, n, m in _SPLIT_CASES:
        jobs.append(Job("split_lemma_check (%d,%d,%d)" % (N, n, m),
                        lambda pkg, a=(N, n, m):
                            pkg.ccwg.split_lemma_check(*a),
                        lambda out, pairs=N ** (2 * (n + m)):
                            out == {"pairs": pairs, "ok": True}))
    return jobs


# ---------------------------------------------------------------------------
# cli-readme: the README's command lines, in process

# ROADMAP item 5: each raises out of cli.main at the seed commit
PROBES = (["analyze", "--case", "a-glue", "--n", "3"],
          ["irreps", "--n", "3", "--char", "a,b"],
          ["mdd", "normal", "--word", "x1", "--n", "3"],
          ["ccwg", "order", "--N", "0", "--n", "2"])


def readme_lines(fixtures):
    """The README's 'Command line' section, with fixture paths filled in."""
    R, S, M = (os.path.join(fixtures, f) for f in ("R.json", "S.json",
                                                   "M.json"))
    return [
        ["verify", "--case", "case2", "--n", "3"],
        ["verify", "--R", R, "--S", S, "--n", "4"],
        ["catalog", "list"],
        ["catalog", "make", "a-glue", "--params", "p=2"],
        ["analyze", "--case", "a-glue", "--n", "4", "--at", "p=2,q=5"],
        ["irreps", "--n", "3", "--char", "a,a^-1,a", "--tau", "1"],
        ["irreps", "--n", "3", "--dims", "2"],
        ["ccwg", "order", "--N", "3", "--n", "4"],
        ["ccwg", "check", M],
        ["ccwg", "project", M, "--part", "glue"],
        ["mdd", "normal", "--word", "s1 r2 r1 s2 r1 r2", "--n", "3"],
        ["mdd", "eval", "--word", "r1 s1", "--case", "case2", "--at",
         "p=2,q=5", "--n", "2"],
    ]


def _report_bytes(out):
    return {"cli.report_bytes": len(out[1])}


def run_cli(pkg, argv):
    """(exit code, report bytes) of ``mdreps <argv>``, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = pkg.cli.main(list(argv))
    return code, out.getvalue().encode()


def cli_key(argv, fixtures):
    """The argv as it reads in the README, fixture paths shortened."""
    return " ".join(os.path.relpath(a, fixtures)
                    if a.startswith(fixtures) else a for a in argv)


def _make_fixtures(pkg, fixtures):
    os.makedirs(fixtures, exist_ok=True)
    code, pair = run_cli(pkg, ["catalog", "make", "case2"])
    code2, glue = run_cli(pkg, ["catalog", "make", "a-glue", "--params",
                                "p=2"])
    if code or code2:
        raise RuntimeError("catalog make failed while writing fixtures")
    pair = json.loads(pair)
    for name, obj in (("R.json", pair["R"]), ("S.json", pair["S"]),
                      ("M.json", json.loads(glue))):
        with open(os.path.join(fixtures, name), "w") as fh:
            json.dump(obj, fh)


def load_cli_expected():
    with open(os.path.join(HERE, "cli_expected.json")) as fh:
        return json.load(fh)


def setup_cli_readme(pkg, seed, workdir):
    fixtures = os.path.join(workdir, "fixtures")
    _make_fixtures(pkg, fixtures)
    expected = load_cli_expected()
    jobs = []
    for argv in readme_lines(fixtures):
        want = expected[cli_key(argv, fixtures)]

        def check(out, want=want):
            code, report = out
            return code == want["exit"] \
                and hashlib.sha256(report).hexdigest() == want["sha256"]
        jobs.append(Job("mdreps " + cli_key(argv, fixtures),
                        lambda pkg, argv=argv: run_cli(pkg, argv), check,
                        measure=_report_bytes))
    for argv in PROBES:
        jobs.append(Job("mdreps " + " ".join(argv),
                        lambda pkg, argv=argv: run_cli(pkg, argv),
                        lambda out: out[0] in (0, 1, 2), probe=True,
                        measure=_report_bytes))
    return jobs


# name -> (setup, fresh import before every job).  cli-readme re-imports
# the package before each job because every CLI invocation is a new process
# whose module-level caches start empty.
WORKLOADS = {
    "verify-sweep": (setup_verify_sweep, False),
    "decompose-point": (setup_decompose_point, False),
    "ccwg-closure": (setup_ccwg_closure, False),
    "cli-readme": (setup_cli_readme, True),
}
