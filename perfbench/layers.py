"""Which vekua_lab functions the traced run wraps, and the per-layer metrics
built from their spans.

Metric names have the form `<module>.<function>.<stat>`.  Work counts are
computed from argument shapes: a volume potential does points x cells
kernel interactions, a boundary integral points x faces.  A
`DtnForm.solution` call is a cache hit when it issues no solve.
`trace.coverage` is the share of the traced wall time during which some
layer span was open; `trace.overhead_s` is the measured cost of one
wrapper call times the number of spans (an untraced second pass of
suite_all would not fit in one run's time limit).
"""

from __future__ import annotations

import importlib

import numpy as np

from tracer import ENTRY_NAMES, coverage, self_times

UNITS = {
    "calls": "count",
    "self_s": "s",
    "interactions": "count",
    "cg_iterations": "count",
    "fallbacks": "count",
    "hit_ratio": "ratio",
    "wall_s": "s",
    "coverage": "ratio",
    "overhead_s": "s",
}


def _volume_work(points, grid, cell_values, *args, **kwargs):
    values = np.asarray(cell_values)
    return np.atleast_2d(points).shape[0] * (values.size // values.shape[-1])


def _scalar_volume_work(points, grid, cell_scalar, *args, **kwargs):
    return np.atleast_2d(points).shape[0] * np.asarray(cell_scalar).size


def _boundary_work(kernel, boundary, trace_values, points):
    return np.atleast_2d(points).shape[0] * len(boundary)


# (module, function, work counter or None, statistics reported)
FUNCTIONS = (
    ("integral_ops", "vector_volume_potential", _volume_work, ("calls", "self_s", "interactions")),
    ("integral_ops", "scalar_volume_potential", _scalar_volume_work,
     ("calls", "self_s", "interactions")),
    ("integral_ops", "cauchy_boundary", _boundary_work, ("calls", "self_s", "interactions")),
    ("clifford", "gp_array", None, ("calls", "self_s")),
    ("kernels", "cauchy_E_components", None, ("calls", "self_s")),
    ("kernels", "vekua_phi_components", None, ("calls", "self_s")),
    ("kernels", "yukawa_theta_components", None, ("calls", "self_s")),
    ("kernels", "newton_N_components", None, ("calls", "self_s")),
    ("fields", "dirac_D", None, ("calls", "self_s")),
    ("fields", "laplacian", None, ("calls", "self_s")),
    ("fields", "cell_average", None, ("calls", "self_s")),
    ("fields", "boundary_sampling", None, ("calls", "self_s")),
    ("fields", "trilinear_sample", None, ("calls", "self_s")),
    ("pde", "coons_extension", None, ("calls", "self_s")),
    ("vekua", "construct_bivector_part", None, ("calls", "self_s")),
)

# (module, class, method, span name, statistics reported)
METHODS = (
    ("pde", "DirichletOperator", "__init__", "pde.DirichletOperator.assemble", ("calls", "self_s")),
    ("pde", "DirichletOperator", "solve", "pde.DirichletOperator.solve",
     ("calls", "self_s", "cg_iterations", "fallbacks")),
    ("pde", "DtnForm", "solution", "pde.DtnForm.solution", ("calls", "hit_ratio")),
    ("pde", "DtnForm", "energy", "pde.DtnForm.energy", ("calls", "self_s")),
    ("vekua", "ConductivityProfile", "__init__", "vekua.ConductivityProfile.init", ("calls", "self_s")),
    ("harness", "CheckReport", "write_json", "harness.CheckReport.write", ("calls", "self_s")),
    ("harness", "CheckReport", "write_errors_csv", "harness.CheckReport.write", ("calls", "self_s")),
    ("harness", "CheckReport", "write_convergence_csv", "harness.CheckReport.write",
     ("calls", "self_s")),
)


def install(tracer):
    """Wrap every traced function of the imported vekua_lab package."""
    modules = {name: importlib.import_module(f"vekua_lab.{name}")
               for name in ("cli", "clifford", "fields", "harness", "integral_ops",
                            "kernels", "pde", "vekua")}
    for module, function, work, _ in FUNCTIONS:
        tracer.patch_function(modules[module], function, work=work)
    for module, cls, method, name, _ in METHODS:
        tracer.patch_method(getattr(modules[module], cls), method, name)
    tracer.patch_function(modules["harness"], "run_identity",
                          name=lambda identity, *a, **k: f"harness.identity.{identity}")
    for entry in ENTRY_NAMES:
        module, function = entry.split(".")
        tracer.patch_function(modules[module], function, name=entry)
    tracer.patch_linalg(modules["pde"])


def metric_names(identities):
    """Every per-layer metric name, in report order."""
    names = []
    seen = set()
    for module, function, _, stats in FUNCTIONS:
        names += [f"{module}.{function}.{stat}" for stat in stats]
    for _, _, _, span_name, stats in METHODS:
        if span_name not in seen:
            seen.add(span_name)
            names += [f"{span_name}.{stat}" for stat in stats]
    names += [f"harness.identity.{name}.wall_s" for name in identities]
    names += ["cli.main.self_s", "trace.coverage", "trace.overhead_s"]
    return names


def per_layer(spans, identities, wall_s, per_span_s):
    """Per-layer metrics of one traced run; layers a workload never calls read 0."""
    selfs = self_times(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)
    solved_in = {s.parent.id for s in spans
                 if s.name == "pde.DirichletOperator.solve" and s.parent is not None}
    values = {}
    for name in metric_names(identities):
        if name == "trace.coverage":
            values[name] = coverage(spans, wall_s)
            continue
        if name == "trace.overhead_s":
            values[name] = per_span_s * len(spans)
            continue
        layer, stat = name.rsplit(".", 1)
        group = by_name.get(layer, [])
        if stat == "calls":
            values[name] = len(group)
        elif stat == "self_s":
            values[name] = sum(selfs[s.id] for s in group)
        elif stat == "wall_s":
            values[name] = sum(s.end - s.start for s in group)
        elif stat == "interactions":
            values[name] = sum(s.work for s in group)
        elif stat == "cg_iterations":
            values[name] = sum(s.cg_iterations for s in group)
        elif stat == "fallbacks":
            values[name] = sum(s.fallbacks for s in group)
        elif stat == "hit_ratio":
            hits = sum(1 for s in group if s.id not in solved_in)
            values[name] = hits / len(group) if group else 0.0
    return {name: {"value": float(v) if isinstance(v, float) else int(v),
                   "unit": UNITS[name.rsplit(".", 1)[1]]}
            for name, v in values.items()}
