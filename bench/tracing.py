"""Span tracing from outside the package.

Tracer.install() replaces each traced function in the namespace of every
loaded jointbma module that refers to it (its defining module included,
so calls inside a module are seen too), and each traced method on its
class. A wrapper records one span: function, parent span, start, end.
Each thread keeps its own span stack and its own buffers, so the grid
points that cli.run_sweep evaluates in a thread pool record without
locks; a span opened on a worker thread with an empty stack takes the
main thread's innermost open span as its parent. uninstall() puts the
original objects back.
"""
from array import array
import itertools
import math
import sys
import threading
from time import perf_counter

import numpy as np

PACKAGE = "jointbma"
# (module, qualified name) of every traced function or method.
TRACED = (
    ("config", "load_config"),
    ("datasets", "load_linear_csv"),
    ("datasets", "load_contingency_csv"),
    ("model_space", "enumerate_linear_models"),
    ("model_space", "enumerate_hierarchical_models"),
    ("model_space", "log_prior_model_weight"),
    ("param_priors", "prior_for_linear_model"),
    ("param_priors", "gprior_base"),
    ("param_priors", "linear_design"),
    ("param_priors", "log_prior_density"),
    ("linear_exact", "all_subsets_stats"),
    ("linear_exact", "gprior_log_marginals"),
    ("linear_exact", "posterior_moments"),
    ("linear_exact", "loo_predictive_exact"),
    ("linear_exact", "cv_score"),
    ("glm_laplace", "build_design"),
    ("glm_laplace", "term_block_prior"),
    ("glm_laplace", "unit_info_for_model"),
    ("glm_laplace", "PoissonLogLinear.loglik"),
    ("_linalg", "chol_factor"),
    ("_linalg", "chol_solve"),
    ("_linalg", "inv_pd"),
    ("_linalg", "log_sum_exp"),
    ("rj_sampler", "rjmcmc_run"),
    ("rj_sampler", "rwm_step"),
    ("rj_sampler", "estimate_model_probs"),
    ("cli", "main"),
    ("cli", "ResultTable.to_csv"),
    ("cli", "ResultTable.to_json"),
)
NAMES = tuple(f"{mod}.{qual}" for mod, qual in TRACED)
# Called tens of thousands of times inside enumeration; counted, not timed.
COUNTED = (("model_space", "ModelId.linear"),)
# Functions whose return values the benchmark reads after a traced run.
KEEP_RESULT = ("rj_sampler.rjmcmc_run",)


class _Buffer:
    """One thread's open-span stack and finished spans."""

    def __init__(self, main):
        self.main = main
        self.stack = []
        self.span = array("q")
        self.func = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}


class Tracer:
    def __init__(self):
        self.names = NAMES
        self.results = {name: [] for name in KEEP_RESULT}
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = _Buffer(main=True)
        self._buffers = [self._main]
        self._lock = threading.Lock()
        self._undo = []

    def _buffer(self):
        buf = getattr(self._local, "buf", None)
        if buf is None:
            if threading.current_thread() is threading.main_thread():
                buf = self._main
            else:
                buf = _Buffer(main=False)
                with self._lock:
                    self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _timed(self, fid, fn):
        keep = self.results.get(self.names[fid])

        def wrapper(*args, **kwargs):
            buf = self._buffer()
            sid = next(self._ids)
            stack = buf.stack
            if stack:
                parent = stack[-1]
            elif not buf.main and self._main.stack:
                parent = self._main.stack[-1]
            else:
                parent = -1
            stack.append(sid)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                buf.span.append(sid)
                buf.func.append(fid)
                buf.parent.append(parent)
                buf.start.append(t0)
                buf.end.append(t1)
            if keep is not None:
                keep.append(out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, name, fn):
        def wrapper(*args, **kwargs):
            counts = self._buffer().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        mods = {name[len(PACKAGE) + 1:]: mod
                for name, mod in list(sys.modules.items())
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        plain = {}
        for fid, (mod, qual) in enumerate(TRACED):
            self._patch(mods[mod], qual, lambda fn, fid=fid:
                        self._timed(fid, fn), plain)
        for mod, qual in COUNTED:
            self._patch(mods[mod], qual, lambda fn, name=f"{mod}.{qual}":
                        self._counted(name, fn), plain)
        for mod in mods.values():
            for attr, value in list(vars(mod).items()):
                wrapped = plain.get(id(value))
                if wrapped is not None and wrapped[0] is value:
                    self._set(mod, attr, wrapped[1])

    def _patch(self, module, qual, make, plain):
        """Wrap a method on its class at once; queue a plain function for
        replacement wherever a module namespace names it."""
        if "." in qual:
            cls_name, attr = qual.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._set(cls, attr, classmethod(make(raw.__func__)))
            else:
                self._set(cls, attr, make(raw))
            return
        fn = getattr(module, qual)
        plain[id(fn)] = (fn, make(fn))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def spans(self):
        """All finished spans as numpy arrays, in start order."""
        cat = {key: np.concatenate([np.array(getattr(b, key))
                                    for b in self._buffers])
               for key in ("span", "func", "parent", "start", "end")}
        order = np.argsort(cat["start"], kind="stable")
        return {key: value[order] for key, value in cat.items()}

    def counts(self):
        out = {}
        for buf in self._buffers:
            for name, value in buf.counts.items():
                out[name] = out.get(name, 0) + value
        return out

    def save(self, path):
        np.savez_compressed(path, names=np.array(self.names), **self.spans())


def _covered(intervals):
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for lo, hi in sorted(intervals):
        if hi > reach:
            total += hi - max(lo, reach)
            reach = hi
    return total


def layer_table(spans, names):
    """Per function: calls, total_s (sum of span durations) and self_s
    (durations minus the part of each span its child spans cover)."""
    dur = spans["end"] - spans["start"]
    children = {}
    for parent, lo, hi in zip(spans["parent"].tolist(),
                              spans["start"].tolist(),
                              spans["end"].tolist()):
        if parent >= 0:
            children.setdefault(parent, []).append((lo, hi))
    self_time = dur.copy()
    for k, sid in enumerate(spans["span"].tolist()):
        kids = children.get(sid)
        if kids:
            self_time[k] -= _covered(kids)
    table = {}
    for fid, name in enumerate(names):
        hit = spans["func"] == fid
        table[name] = {"calls": int(hit.sum()),
                       "total_s": float(dur[hit].sum()),
                       "self_s": float(self_time[hit].sum())}
    return table
