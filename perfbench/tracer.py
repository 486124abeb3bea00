"""In-memory span recorder that times the library's layers from outside.

Spans are recorded by rebinding the module attributes that callers look up
(``conic_alm.alm.minimize_auglag``, ``conic_alm.auglag.primal_objective`` and
so on) to thin wrappers; no library source is edited. Each span keeps its
name, start, end, parent span and the id of the solve or verification it
belongs to. Spans live in flat arrays so that the ~10^5 objective evaluations
of one pass cost about a microsecond each to record; they are written out
and reduced to self times only after the pass.

The ``conic_alm.inner`` module is reached through ``sys.modules`` because
the package attribute of that name is the trace-product function re-exported
from ``symcone``.
"""

import contextlib
import sys
import time
from array import array
from collections import Counter

import numpy as np

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.solve = array("i")
        self._stack = [-1]
        self.solve_id = -1
        self._next_solve = 0
        self.counts = Counter()
        self._patches = []

    def begin(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.solve.append(self.solve_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(_clock())
        return idx

    def finish(self, idx):
        self.end[idx] = _clock()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        """Record the enclosed block as one span (for the benchmark's own calls)."""
        idx = self.begin(name)
        try:
            yield
        finally:
            self.finish(idx)

    def new_solve(self):
        self.solve_id = self._next_solve
        self._next_solve += 1

    # -- rebinding -------------------------------------------------------

    def _patch(self, module, attr, wrapper):
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def timed(self, module, attr, name, root=False):
        """Rebind ``module.attr`` to a wrapper that records one span per call."""
        fn = getattr(module, attr)

        def wrapper(*args, **kwargs):
            if root:
                self.new_solve()
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.finish(idx)
                if root:
                    self.solve_id = -1

        self._patch(module, attr, wrapper)

    def timed_factory(self, module, attr, name):
        """Rebind an objective factory so the closures it returns are timed."""
        factory = getattr(module, attr)

        def wrapper(*args, **kwargs):
            value_and_grad = factory(*args, **kwargs)

            def timed_value_and_grad(point):
                self.counts["auglag.evals"] += 1
                idx = self.begin(name)
                try:
                    return value_and_grad(point)
                finally:
                    self.finish(idx)

            return timed_value_and_grad

        self._patch(module, attr, wrapper)

    def timed_inner(self, module, attr):
        """Rebind the inner solver; also counts steps, converged and budget exits."""
        minimize = getattr(module, attr)

        def wrapper(value_and_grad, start, tol, *args, **kwargs):
            max_iter = kwargs.get("max_iter", args[0] if args else 10000)
            idx = self.begin("inner.minimize")
            try:
                result = minimize(value_and_grad, start, tol, *args, **kwargs)
            finally:
                self.finish(idx)
            self.counts["inner.calls"] += 1
            self.counts["inner.steps"] += result.iterations
            self.counts["inner.converged"] += bool(result.converged)
            self.counts["inner.budget_exits"] += result.iterations >= max_iter
            return result

        self._patch(module, attr, wrapper)

    def install(self):
        """Rebind every layer boundary the workloads cross."""
        from conic_alm import alm, auglag, cli, model, sdpa, theory

        inner_mod = sys.modules["conic_alm.inner"]
        if alm.minimize_auglag is not inner_mod.minimize_auglag:
            raise RuntimeError("conic_alm.alm no longer calls inner.minimize_auglag")
        self.timed_inner(alm, "minimize_auglag")
        for form in ("primal", "dual", "ineq"):
            self.timed(alm, f"solve_{form}_alm", f"alm.solve.{form}", root=True)
        self.timed(alm, "verify_ppm_alm_link", "alm.ppm_link", root=True)
        verifiers = ("verify_qg_primal", "verify_eb_primal", "verify_qg_dual",
                     "verify_growth_lemma", "verify_penalty_preimage",
                     "exact_penalty_equivalence", "check_trace_bound")
        for fn in verifiers:
            self.timed(theory, fn, f"theory.{fn}", root=True)
        for form in ("primal", "dual", "ineq"):
            self.timed_factory(auglag, f"{form}_objective", f"auglag.eval.{form}")
        for mod in (alm, model, theory):
            for fn in ("project_psd", "dist_psd", "eig_sym", "exact_penalty",
                       "face_basis", "dist_to_face"):
                if hasattr(mod, fn):
                    self.timed(mod, fn, f"symcone.{fn}")
        for mod in (alm, theory):
            for fn in ("apply_A", "apply_Astar"):
                self.timed(mod, fn, f"model.{fn}")
        self.timed(alm, "kkt_residuals", "model.residuals")
        self.timed(alm, "ineq_residuals", "model.residuals")
        for fn in ("synth_known_solution", "maxcut_instance", "svm_instance",
                   "lasso_instance"):
            self.timed(model, fn, "model.build")
        self.timed(sdpa, "sdpa_read", "sdpa.read")
        self.timed(sdpa, "sdpa_write", "sdpa.write")
        self.timed(cli, "write_trace_csv", "cli.write_trace")

    def uninstall(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    # -- reduction -------------------------------------------------------

    def arrays(self):
        start = np.frombuffer(self.start, dtype=float)
        end = np.frombuffer(self.end, dtype=float)
        return (np.frombuffer(self.name_id, dtype=np.int32), start, end,
                np.frombuffer(self.parent, dtype=np.int32),
                np.frombuffer(self.solve, dtype=np.int32))

    def summary(self):
        """Per span name: call count, inclusive seconds and self seconds.

        Self time is a span's duration minus the durations of its direct
        children (one thread, so children never overlap).
        """
        name_id, start, end, parent, _ = self.arrays()
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)
        self_time = dur - child
        out = {}
        for nid, name in enumerate(self.names):
            mask = name_id == nid
            out[name] = {"calls": int(mask.sum()), "total_s": float(dur[mask].sum()),
                         "self_s": float(self_time[mask].sum())}
        return out

    def save(self, path):
        name_id, start, end, parent, solve = self.arrays()
        t0 = float(start.min()) if start.size else 0.0
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start=start - t0, end=end - t0, parent=parent,
                            solve=solve)
