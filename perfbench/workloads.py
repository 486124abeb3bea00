"""The four benchmark workloads: inputs from a seed, the timed work, the checks.

Every workload starts from frozen base problems (the library's own fixtures
and the acceptance suite's certified instances) and applies a symmetry drawn
from the workload seed: an orthogonal congruence X -> Q'XQ for certified
SDPs, a vertex relabelling for the 20-vertex max-cut graphs, a signed
permutation of the variables and a permutation of the rows for QPs. The
transformed problem is the same problem in other coordinates, so the seed
changes the input bytes but hardly the amount of work, and the seed-to-seed
spread of the timings stays inside the benchmark's bounds. Drawing fresh
instances per seed instead moves the work by a factor of two to four
(svm-random took 1.3 s to 4.7 s over fixture seeds, a random 40-vertex
max-cut graph 6 s to 22 s), which no regression bound can absorb.

Workloads call the library through module attributes (``alm.solve_primal_alm``,
``model.synth_known_solution``, ...) so that a traced pass sees every call.
"""

import contextlib
import warnings

import numpy as np

from conic_alm import alm, cli, fixtures, model, sdpa, symcone, theory

import checks

# Acceptance-suite shapes n -> (m, rank_x) for the C3 convergence study
# (tests/test_acceptance.py, RATE_SHAPES); acceptance instance i has
# n = 3 + i % 6 and seed 100 + i.
RATE_SHAPES = {3: (3, 1), 4: (5, 2), 5: (6, 2), 6: (8, 3), 7: (9, 3), 8: (12, 4)}
C3_CONFIG = alm.AlmConfig(r_growth=1.0, max_outer=100, stop_eps3=1e-13,
                          inner_budget=400)
LOOSE_EPS3 = 1e-5
# Independent recomputation differs from the solver's own in rounding only.
CHECK_SLACK = 1.01


class Result:
    """One solve or verification: its label, trace (if any) and raw output."""

    def __init__(self, label, trace=None, report=None, instance=None):
        self.label = label
        self.trace = trace
        self.report = report
        self.instance = instance


def _quiet(fn, *args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return fn(*args, **kwargs)


def random_orthogonal(rng, n):
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    return Q * np.sign(np.diag(R))


def rotate_certified(inst, Q):
    """The certified instance in the basis Q, re-certified on construction."""
    p = inst.problem
    mats = np.stack([symcone.symmetrize(Q.T @ A @ Q) for A in p.constraint_mats])
    x_star = symcone.symmetrize(Q.T @ inst.x_star @ Q)
    z_star = symcone.symmetrize(Q.T @ inst.z_star @ Q)
    C = symcone.symmetrize(np.tensordot(inst.y_star, mats, axes=(0, 0)) + z_star)
    b = np.tensordot(mats, x_star, axes=([1, 2], [0, 1]))
    problem = model.SdpProblem(C=C, constraint_mats=mats, b=b, name=p.name + "-rot")
    return model.KnownSolutionInstance(problem=problem, x_star=x_star,
                                       y_star=inst.y_star, z_star=z_star,
                                       p_star=symcone.inner(C, x_star))


def permute_qp(q, rng):
    """The QP after a signed permutation of x and a permutation of the rows."""
    pv = rng.permutation(q.dim)
    sv = rng.choice([-1.0, 1.0], size=q.dim)
    pc = rng.permutation(q.n_constraints)
    return model.IneqProblem(Q=q.Q[pv][:, pv] * np.outer(sv, sv), c=q.c[pv] * sv,
                             G=q.G[pc][:, pv] * sv, h=q.h[pc], offset=q.offset,
                             name=q.name + "-perm")


def gset_density_graph(n, seed, density=0.06):
    """Unit-weight graph with round(density * n(n-1)/2) edges, as Gset G1 (6%)."""
    rng = np.random.default_rng(seed)
    iu = np.triu_indices(n, 1)
    pick = rng.choice(iu[0].size, size=int(round(density * iu[0].size)), replace=False)
    W = np.zeros((n, n))
    W[iu[0][pick], iu[1][pick]] = 1.0
    return W + W.T


class Workload:
    """Base: ``setup`` builds inputs, ``run`` is the timed part, ``check`` verifies."""

    name = ""

    def __init__(self, seed, work_dir, span=None):
        self.rng = np.random.default_rng(seed)
        self.work_dir = work_dir
        self.span = span or (lambda name: contextlib.nullcontext())
        self.sdpa_bytes = 0

    def micro_sdp(self):
        """SDP that sizes the layer microbenchmarks (the largest one solved)."""
        return fixtures.maxcut_fixture("maxcut-g1-20")

    def micro_qp(self):
        return fixtures.svm_fixture()

    def operator_bytes(self):
        """Bytes of the largest constraint operator the workload applies."""
        return self.micro_sdp().constraint_mats.nbytes

    def accuracy(self, details):
        """Worst final KKT residual (as digits) and worst fitted linear rate."""
        solves = [d for d in details if "eps3" in d]
        acc = {"eps3_digits": min(-np.log10(max(d["eps3"], 1e-300)) for d in solves),
               "rate_q_max": max(d["rate_q"] for d in solves)}
        if any("dist_w" in d for d in solves):
            acc["dist_w_digits"] = min(-np.log10(max(d["dist_w"], 1e-300))
                                       for d in solves if "dist_w" in d)
        return acc


class CertifiedStudy(Workload):
    """C3 acceptance configuration on rotated acceptance instances 0 and 3."""

    name = "certified-study"
    INSTANCES = (0, 3)

    def setup(self):
        self.instances = []
        for i in self.INSTANCES:
            n = 3 + i % 6
            m, rank_x = RATE_SHAPES[n]
            base = model.synth_known_solution(n=n, m=m, rank_x=rank_x, seed=100 + i)
            with self.span("model.build"):
                inst = rotate_certified(base, random_orthogonal(self.rng, n))
            if not (inst.primal_unique and inst.dual_unique):
                raise RuntimeError(f"{inst.problem.name}: solution sets not unique")
            self.instances.append(inst)

    def run(self):
        return [Result(inst.problem.name, instance=inst,
                       trace=_quiet(alm.solve_primal_alm, inst,
                                    model.zero_dual(inst.problem), C3_CONFIG))
                for inst in self.instances]

    def check(self, results):
        return [(res.label, *checks.certified_study(res.instance, res.trace))
                for res in results]

    def micro_sdp(self):
        return self.instances[-1].problem


class MaxcutSdp(Workload):
    """Max-cut relaxations read back from SDPA files, primal and dual form."""

    name = "maxcut-sdp"
    FROZEN = ("maxcut-g1-20", "maxcut-g2-20", "maxcut-g3-20")
    # The 40-vertex graph keeps its labelling: relabelling it moves the
    # objective evaluations of its solves by up to 15 % (line-search
    # halvings at the floating-point floor depend on rounding), and those
    # solves are three quarters of the workload's time.
    LARGE_N = 40
    LARGE_GRAPH_SEED = 10
    CONFIG = alm.AlmConfig(stop_eps3=LOOSE_EPS3)

    def setup(self):
        graphs = [(name, fixtures.fixture_graph(name)) for name in self.FROZEN]
        graphs.append((f"gset-density-{self.LARGE_N}",
                       gset_density_graph(self.LARGE_N, self.LARGE_GRAPH_SEED)))
        self.problems = []
        for name, W in graphs:
            if name in self.FROZEN:
                perm = self.rng.permutation(W.shape[0])
                W = W[perm][:, perm]
            p = model.maxcut_instance(W, name=name)
            path = self.work_dir / f"{name}.dat-s"
            sdpa.sdpa_write(p, path)
            self.sdpa_bytes += path.stat().st_size
            self.problems.append(sdpa.sdpa_read(path))

    def run(self):
        results = []
        for p in self.problems:
            tag = f"n{p.n}-{len(results) // 2}"
            results.append(Result(tag + "-primal", trace=_quiet(
                alm.solve_primal_alm, p, model.zero_dual(p), self.CONFIG)))
            results.append(Result(tag + "-dual", trace=_quiet(
                alm.solve_dual_alm, p, np.zeros((p.n, p.n)), self.CONFIG)))
        return results

    def check(self, results):
        out = []
        for i, res in enumerate(results):
            p = self.problems[i // 2]
            series = [checks.maxcut_violation(p.C, rec.X, rec.y)
                      for rec in res.trace.records]
            out.append((res.label, series[-1] <= LOOSE_EPS3 * CHECK_SLACK,
                        {"eps3": series[-1], "rate_q": checks.series_rate(series)}))
        return out

    def micro_sdp(self):
        return self.problems[-1]


class QpIneq(Workload):
    """svm-random and lasso-random in inequality form, permuted by the seed."""

    name = "qp-ineq"
    CONFIG = alm.AlmConfig(stop_eps3=LOOSE_EPS3)

    def setup(self):
        with self.span("model.build"):
            self.problems = [permute_qp(fixtures.svm_fixture(), self.rng),
                             permute_qp(fixtures.lasso_fixture(), self.rng)]

    def run(self):
        return [Result(q.name, trace=_quiet(alm.solve_ineq_alm, q,
                                            np.zeros(q.n_constraints), self.CONFIG))
                for q in self.problems]

    def check(self, results):
        out = []
        for q, res in zip(self.problems, results):
            series = [checks.qp_violation(q, rec.x, rec.z) for rec in res.trace.records]
            out.append((res.label, series[-1] <= LOOSE_EPS3 * CHECK_SLACK,
                        {"eps3": series[-1], "rate_q": checks.series_rate(series)}))
        return out

    def micro_qp(self):
        return self.problems[0]

    def operator_bytes(self):
        return max(q.G.nbytes for q in self.problems)


class LabVerify(Workload):
    """The theory lab's verifiers on rotated certified instances."""

    name = "lab-verify"
    # (n, m, rank_x, base seed) in the shapes of acceptance criteria C4 and C9
    BASES = ((4, 5, 2, 300), (5, 6, 2, 401))
    # Fixed sample counts keep the verifiers' work the same for every seed.
    # The link check re-solves each subproblem at the floating-point floor,
    # where its evaluation count moves by 10 % with the seed, so it runs on
    # the first instance only.
    SAMPLES = 1000
    LEMMA_SAMPLES = 2000
    TRACE_BOUND_SAMPLES = 2000
    PREIMAGE_SAMPLES = 10
    LINK_CONFIG = alm.AlmConfig(max_outer=25, stop_eps3=1e-10)

    def setup(self):
        self.instances = []
        for n, m, rank_x, seed in self.BASES:
            base = model.synth_known_solution(n=n, m=m, rank_x=rank_x, seed=seed)
            with self.span("model.build"):
                inst = rotate_certified(base, random_orthogonal(self.rng, n))
            if not (inst.primal_unique and inst.dual_unique):
                raise RuntimeError(f"{inst.problem.name}: solution sets not unique")
            self.instances.append(inst)
        self.sample_seeds = [int(s) for s in self.rng.integers(0, 2**31, size=16)]

    def run(self):
        seeds = iter(self.sample_seeds)
        results = []
        for inst in self.instances:
            tag = inst.problem.name
            trz = float(np.trace(inst.z_star))
            results += [
                Result(tag + "/qg-primal", report=theory.verify_qg_primal(
                    inst, samples=self.SAMPLES, seed=next(seeds))),
                Result(tag + "/eb-primal", report=theory.verify_eb_primal(
                    inst, samples=self.SAMPLES, seed=next(seeds))),
                Result(tag + "/qg-dual", report=theory.verify_qg_dual(
                    inst, samples=self.SAMPLES, seed=next(seeds))),
                Result(tag + "/growth-lemma", report=theory.verify_growth_lemma(
                    inst.x_star, inst.z_star, mu=1.0, samples=self.LEMMA_SAMPLES,
                    seed=next(seeds))),
                Result(tag + "/penalty-preimage", report=theory.verify_penalty_preimage(
                    inst.z_star, trz + 1.0, samples=self.PREIMAGE_SAMPLES,
                    seed=next(seeds))),
                Result(tag + "/exact-penalty", report=theory.exact_penalty_equivalence(
                    inst, 1.1 * trz)),
            ]
        inst = self.instances[0]
        trace = _quiet(alm.solve_primal_alm, inst, model.zero_dual(inst.problem),
                       self.LINK_CONFIG)
        results.append(Result(inst.problem.name + "/ppm-alm-link", trace=trace,
                              instance=inst,
                              report=alm.verify_ppm_alm_link(inst.problem, trace)))
        results.append(Result("trace-bound", report=theory.check_trace_bound(
            samples=self.TRACE_BOUND_SAMPLES, seed=next(seeds))))
        return results

    def check(self, results):
        out = []
        for res in results:
            rep = res.report
            kind = res.label.rsplit("/", 1)[-1]
            if kind == "penalty-preimage":
                ok = rep.ok
                detail = {"face_failures": rep.face_failures,
                          "off_face_missed": rep.off_face_points - rep.off_face_detected}
            elif kind == "exact-penalty":
                ok = rep.dist_to_solution <= 1e-5 and bool(rep.subthreshold_detected)
                detail = {"dist_to_solution": rep.dist_to_solution}
            elif kind == "ppm-alm-link":
                ok = rep.ok
                detail = {"violations": len(rep.violations),
                          **checks.solve_accuracy(res.instance, res.trace)}
            else:
                ok = len(rep.violated) == 0
                detail = {"violations": len(rep.violated)}
            out.append((res.label, ok, detail))
        return out

    def micro_sdp(self):
        return self.instances[-1].problem


WORKLOADS = {cls.name: cls for cls in (CertifiedStudy, MaxcutSdp, QpIneq, LabVerify)}


def write_traces(results, directory):
    """Write every solve's trace.csv with the CLI writer; return the paths."""
    paths = []
    for i, res in enumerate(results):
        if res.trace is not None:
            path = directory / f"trace-{i:02d}.csv"
            cli.write_trace_csv(res.trace, path)
            paths.append(path)
    return paths
