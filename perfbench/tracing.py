"""Span tracing at the module boundaries of ``fracdelay``, from outside.

The tracer wraps the library's public (and cross-module) functions in place,
records one span per call (name, layer, start, end, parent, counts) in
memory, and restores every wrapped attribute on exit -- including the names
that ``from .x import y`` re-bound in other modules and in the package
namespace.  Wrappers pass arguments and results through untouched, so traced
outputs equal untraced ones.

A layer's self time is its spans' durations minus the part covered by their
child spans; the self times of all spans under one root add up to the root's
duration.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "fracdelay"
LAYERS = ("mlf", "kernels", "solver", "certificates", "spectral", "system",
          "tables", "cli", "import", "harness")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    layer: str
    t0: float
    t1: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.t1 - self.t0


# ---------------------------------------------------------------------------
# argument annotators: counts recorded where the work happens
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _count_ml_points(args, kwargs, counts):
    """ml_scalar_array(alpha, beta, z, rel_tol, max_terms, allow_mp)."""
    alpha = float(_arg(args, kwargs, 0, "alpha"))
    beta = float(_arg(args, kwargs, 1, "beta"))
    z = np.asarray(_arg(args, kwargs, 2, "z"))
    points = int(z.size)
    counts["points"] = points
    counts["large_z"] = int(np.count_nonzero(np.abs(z) >= 4.0))
    counts["integer_order"] = (points if alpha in (1.0, 2.0)
                               and beta.is_integer() else 0)
    counts["mp_allowed"] = (points if _arg(args, kwargs, 5, "allow_mp", True)
                            else 0)
    return args, kwargs


def _count_quad_points(args, kwargs, counts):
    """weighted_singular_integral(gamma_exp, w_func, ...): count w points."""
    w = _arg(args, kwargs, 1, "w_func")
    counts["points"] = 0

    def counted(s):
        counts["points"] += int(np.size(s))
        return w(s)

    if len(args) > 1:
        args = args[:1] + (counted,) + args[2:]
    else:
        kwargs = dict(kwargs, w_func=counted)
    return args, kwargs


def _count_deltas(args, kwargs, counts):
    """certify(prob, feedback, delta_grid, ...)."""
    grid = _arg(args, kwargs, 2, "delta_grid")
    if grid is None:
        grid = sys.modules[f"{PACKAGE}.certificates"].DEFAULT_DELTA_GRID
    counts["deltas"] = len(grid)
    return args, kwargs


def _count_nodes(result, counts):
    counts["nodes"] = int(np.shape(result.states if hasattr(result, "states")
                                   else result)[0])


# (module, attribute, span name, pre-call annotator, post-call annotator);
# an attribute "Class.method" wraps the method on the class.
WRAP_SPECS = (
    ("mlf", "ml_scalar_array", "mlf.ml_scalar_array", _count_ml_points, None),
    ("mlf", "ml_scalar", "mlf.ml_scalar", None, None),
    ("mlf", "ml_matrix", "mlf.ml_matrix", None, None),
    ("mlf", "eig_factors", "mlf.eig_factors", None, None),
    ("mlf", "_ml_matrix_series", "mlf.matrix_series", None, None),
    ("mlf", "gamma_fn", "mlf.gamma_fn", None, None),
    ("kernels", "Kernels.__init__", "kernels.build", None, None),
    ("kernels", "Kernels.e_ml", "kernels.e_ml", None, None),
    ("kernels", "Kernels.phi_j", "kernels.phi_j", None, None),
    ("kernels", "Kernels.phi", "kernels.phi", None, None),
    ("kernels", "Kernels.int_phi", "kernels.int_phi", None, None),
    ("kernels", "Kernels.int_s_phi", "kernels.int_s_phi", None, None),
    ("kernels", "Kernels._e_norms", "kernels.e_norms", None, None),
    ("kernels", "phi_alpha_j", "kernels.phi_alpha_j", None, None),
    ("kernels", "phi_alpha", "kernels.phi_alpha", None, None),
    ("kernels", "phi_alpha_l1", "kernels.phi_alpha_l1", None, None),
    ("kernels", "phi_alpha_l2sq", "kernels.phi_alpha_l2sq", None, None),
    ("kernels", "weighted_singular_integral", "kernels.quad",
     _count_quad_points, None),
    ("kernels", "norm_series_exp", "kernels.norm_series_exp", None, None),
    ("kernels", "norm_series_ml", "kernels.norm_series_ml", None, None),
    ("kernels", "sup_factor", "kernels.sup_factor", None, None),
    ("kernels", "sup_gamma_ratio", "kernels.sup_gamma_ratio", None, None),
    ("kernels", "fit_decay_envelope", "kernels.fit_decay_envelope", None, None),
    ("kernels", "expm", "kernels.expm", None, None),
    ("kernels", "verify_lemma22", "kernels.verify_lemma22", None, None),
    ("solver", "align_grid", "solver.align_grid", None, None),
    ("solver", "_Discretization.__init__", "solver.discretize", None, None),
    ("solver", "_march", "solver.march", None, _count_nodes),
    ("solver", "solve_trajectory", "solver.solve_trajectory", None, None),
    ("solver", "solve_delay_free", "solver.solve_delay_free", None, None),
    ("solver", "picard_map", "solver.picard_map", None, None),
    ("solver", "solve_oracle", "solver.oracle", None, _count_nodes),
    ("certificates", "certify", "certificates.certify", _count_deltas, None),
    ("certificates", "cert_g_h", "certificates.cert_g_h", None, None),
    ("certificates", "cert_g_f", "certificates.cert_g_f", None, None),
    ("certificates", "cert_g_hat_h", "certificates.cert_g_hat_h", None, None),
    ("certificates", "cert_g_hat_f", "certificates.cert_g_hat_f", None, None),
    ("certificates", "gain_bound_uniform", "certificates.gain_bound_uniform",
     None, None),
    ("certificates", "gain_bound_l2", "certificates.gain_bound_l2", None, None),
    ("certificates", "delay_free_certify", "certificates.delay_free", None,
     None),
    ("certificates", "_l1_to_infinity", "certificates.l1_to_infinity", None,
     None),
    ("certificates", "high_order_check", "certificates.high_order_check",
     None, None),
    ("spectral", "theorem34_certify", "spectral.theorem34", None, None),
    ("spectral", "matrix_norm", "spectral.matrix_norm", None, None),
    ("spectral", "matrix_measure", "spectral.matrix_measure", None, None),
    ("spectral", "condition_number", "spectral.condition_number", None, None),
    ("spectral", "decompose", "spectral.decompose", None, None),
    ("spectral", "frac_power_measure", "spectral.frac_power_measure", None,
     None),
    ("spectral", "composite_block_norm", "spectral.composite_block_norm",
     None, None),
    ("spectral", "optimize_beta", "spectral.optimize_beta", None, None),
    ("system", "validate_system", "system.validate", None, None),
    ("system", "problem_from_dict", "system.problem_from_dict", None, None),
    ("system", "load_problem", "system.load_problem", None, None),
    ("system", "problem_to_dict", "system.problem_to_dict", None, None),
    ("system", "ahat_sup_norm", "system.ahat_sup_norm", None, None),
    ("system", "atilde_sup_norm", "system.atilde_sup_norm", None, None),
    ("system", "b_sup_norm", "system.b_sup_norm", None, None),
    ("tables", "l2_window_norm", "tables.l2_window", None, None),
    ("tables", "sup_norm_bound", "tables.sup_norm_bound", None, None),
    ("tables", "induced_norm", "tables.induced_norm", None, None),
    ("tables", "table_linear_combination", "tables.linear_combination",
     None, None),
    ("tables", "as_table", "tables.as_table", None, None),
    ("cli", "main", "cli.main", None, None),
)


class Tracer:
    """Collects spans in memory; ``installed()`` wraps and later restores."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -----------------------------------------------------------

    def open(self, name: str, layer: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, layer,
                    time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    @property
    def current(self) -> Span:
        return self._stack[-1]

    def close(self, span: Span) -> None:
        span.t1 = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def adopt(self, records: list[dict], parent: Span) -> None:
        """Graft spans recorded elsewhere (a child process) under ``parent``."""
        base = len(self.spans)
        for rec in records:
            p = rec["parent"]
            self.spans.append(Span(base + rec["id"],
                                   parent.id if p is None else base + p,
                                   rec["name"], rec["layer"], rec["t0"],
                                   rec["t1"], rec["counts"]))

    # -- wrapping --------------------------------------------------------

    def _wrap(self, fn, name, layer, pre, post):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name, layer)
            try:
                if pre is not None:
                    args, kwargs = pre(args, kwargs, span.counts)
                result = fn(*args, **kwargs)
                if post is not None:
                    post(result, span.counts)
                return result
            finally:
                tracer.close(span)

        return traced

    def install(self) -> None:
        modules = [m for key, m in sorted(sys.modules.items())
                   if m is not None
                   and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for mod_name, attr, name, pre, post in WRAP_SPECS:
            mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            layer = mod_name
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                original = cls.__dict__[meth]
                self._patch(cls, meth, self._wrap(original, name, layer, pre,
                                                  post))
                continue
            original = getattr(mod, attr)
            wrapped = self._wrap(original, name, layer, pre, post)
            # every module global bound to the same object, so calls across
            # module boundaries (``from .mlf import ml_scalar_array``) and
            # through the package namespace are seen too
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original and key == attr:
                        self._patch(m, key, wrapped)

    def _patch(self, owner, key, wrapped):
        self._patches.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    @contextlib.contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def records(self) -> list[dict]:
        return [{"id": s.id, "parent": s.parent, "name": s.name,
                 "layer": s.layer, "t0": s.t0, "t1": s.t1,
                 "counts": s.counts} for s in self.spans]


# ---------------------------------------------------------------------------
# span analysis
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the union of its children's intervals (clipped)."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.t0):
            lo, hi = max(c.t0, s.t0), min(c.t1, s.t1)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[s.id] = s.duration - covered
    return out


def _has_ancestor(span: Span, by_id: dict, name: str) -> bool:
    p = span.parent
    while p is not None:
        anc = by_id[p]
        if anc.name == name:
            return True
        p = anc.parent
    return False


def layer_metrics(spans: list[Span], ops: int) -> dict[str, tuple]:
    """Per-layer metrics as {name: (value, unit)} from one traced pass."""
    by_id = {s.id: s for s in spans}
    selfs = self_times(spans)

    def named(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return float(sum(s.duration for s in named(name)))

    def count(name, key):
        return int(sum(s.counts.get(key, 0) for s in named(name)))

    def ratio(num, den):
        return float(num / den) if den > 0 else 0.0

    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer_self[s.layer] = layer_self.get(s.layer, 0.0) + selfs[s.id]
    roots = [s for s in spans if s.parent is None]
    op_s = float(sum(s.duration for s in roots))

    ml = named("mlf.ml_scalar_array")
    ml_points = count("mlf.ml_scalar_array", "points")
    quad = named("kernels.quad")
    certify_s = total("certificates.certify")
    quad_in_certify = sum(s.duration for s in quad
                          if _has_ancestor(s, by_id, "certificates.certify"))
    march_nodes = count("solver.march", "nodes")
    oracle_nodes = count("solver.oracle", "nodes")
    imports = sorted(s.duration for s in named("cli.import"))

    m = {f"{layer}.self_s": (layer_self[layer], "s") for layer in LAYERS}
    m.update({
        "mlf.calls": (len(ml), "count"),
        "mlf.points": (ml_points, "count"),
        "mlf.points_per_s": (ratio(ml_points, sum(s.duration for s in ml)),
                             "1/s"),
        "mlf.points.integer_order": (count("mlf.ml_scalar_array",
                                           "integer_order"), "count"),
        "mlf.points.large_z": (count("mlf.ml_scalar_array", "large_z"),
                               "count"),
        "mlf.points.mp_allowed": (count("mlf.ml_scalar_array", "mp_allowed"),
                                  "count"),
        "kernels.builds": (len(named("kernels.build")), "count"),
        "kernels.builds_per_op": (ratio(len(named("kernels.build")), ops),
                                  "count"),
        "kernels.e_ml.self_s": (float(sum(selfs[s.id] for s in
                                          named("kernels.e_ml"))), "s"),
        "kernels.quad.calls": (len(quad), "count"),
        "kernels.quad.self_s": (float(sum(selfs[s.id] for s in quad)), "s"),
        "kernels.quad.points_per_call": (ratio(count("kernels.quad", "points"),
                                               len(quad)), "count"),
        "kernels.expm.calls": (len(named("kernels.expm")), "count"),
        "kernels.expm.s": (total("kernels.expm"), "s"),
        "kernels.norm_series.s": (total("kernels.norm_series_exp")
                                  + total("kernels.norm_series_ml"), "s"),
        "solver.nodes": (march_nodes, "count"),
        "solver.march.s_per_node": (ratio(total("solver.march"), march_nodes),
                                    "s/node"),
        "solver.kernel_weights.s": (total("solver.discretize"), "s"),
        "solver.oracle.s_per_node": (ratio(total("solver.oracle"),
                                           oracle_nodes), "s/node"),
        "certificates.s": (certify_s, "s"),
        "certificates.deltas": (count("certificates.certify", "deltas"),
                                "count"),
        "certificates.quad_share": (ratio(quad_in_certify, certify_s),
                                    "ratio"),
        "certificates.delay_free.s": (total("certificates.delay_free"), "s"),
        "certificates.delay_free.l1_calls": (
            sum(1 for s in named("kernels.phi_alpha_l1")
                if _has_ancestor(s, by_id, "certificates.l1_to_infinity")),
            "count"),
        "system.validate.s": (total("system.validate"), "s"),
        "tables.l2_window.calls": (len(named("tables.l2_window")), "count"),
        "tables.l2_window.s": (total("tables.l2_window"), "s"),
        "cli.import_s": (float(imports[len(imports) // 2]) if imports
                         else 0.0, "s"),
        "spectral.theorem34.s": (total("spectral.theorem34"), "s"),
        "trace.op_s": (op_s, "s"),
        "trace.self_sum_ratio": (ratio(sum(layer_self.values()), op_s),
                                 "ratio"),
    })
    return m
