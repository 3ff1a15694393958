"""The traced run's view of ncdirac: which names it wraps, and the per-layer
metrics of one session derived from the spans and counts they record.

Names are wrapped where callers look them up at call time: a module
attribute reached as ``module.name`` or as a global inside the module, and
the imported aliases ``ncmodel.ps_commutator`` and ``invariant.ps_commutator``
of ``phasepoly.commutator``.
"""

from __future__ import annotations

import dataclasses
import statistics

from tracing import Tracer, aggregate

# module short name -> functions recorded as spans
TIMED = {
    "cli": (
        "main", "load_config", "cmd_verify_algebra", "cmd_invariant", "cmd_xi",
        "cmd_evolve", "cmd_report",
    ),
    "fockevolve": (
        "build_fock_rep", "represent", "coherent_state", "evolve", "invariant_drift",
        "uncertainty_check_matrices", "write_evolution_csv",
    ),
    "ncmodel": ("verify_nc_algebra", "dual_path_deviation", "build_h_nc"),
    "invariant": ("constraint_residuals", "invariance_residual", "solve_constant_invariant"),
    "lrsolve": ("integrate_rk4", "write_trajectory_csv"),
    "mat2": ("verify_dirac_algebra",),
}
# functions called too often and too briefly to time: counted only
COUNTED = {"lrsolve": ("flow_rhs", "closed_state"), "mat2": ("commutator",)}

# (name, unit); the order BENCHMARK.json lists them in
PER_LAYER = (
    ("linalg.eigh.calls", "count"),
    ("linalg.eigh.s", "s"),
    ("linalg.eigh_per_step", "calls/step"),
    ("linalg.eigh.n3", "dim3"),
    ("fockevolve.calls", "count"),
    ("fockevolve.represent.calls", "count"),
    ("fockevolve.represent.s", "s"),
    ("fockevolve.evolve.self_s", "s"),
    ("fockevolve.build_fock_rep.s", "s"),
    ("fockevolve.uncertainty_check_matrices.calls", "count"),
    ("fockevolve.uncertainty_check_matrices.s", "s"),
    ("fockevolve.invariant_drift.s", "s"),
    ("fockevolve.states_bytes", "B"),
    ("ncmodel.h_value.calls", "count"),
    ("ncmodel.verify_nc_algebra.s", "s"),
    ("ncmodel.build_h_nc.calls", "count"),
    ("ncmodel.dual_path_deviation.calls", "count"),
    ("phasepoly.commutator.calls", "count"),
    ("phasepoly.commutator.s", "s"),
    ("phasepoly.PhasePoly.created", "count"),
    ("invariant.constraint_residuals.calls", "count"),
    ("invariant.constraint_residuals.s", "s"),
    ("invariant.invariance_residual.calls", "count"),
    ("invariant.invariance_residual.s", "s"),
    ("invariant.solve_constant_invariant.s", "s"),
    ("lrsolve.integrate_rk4.s", "s"),
    ("lrsolve.flow_rhs.calls", "count"),
    ("lrsolve.closed_state.calls", "count"),
    ("mat2.verify_dirac_algebra.s", "s"),
    ("mat2.commutator.calls", "count"),
    ("cli.load_config.s", "s"),
    ("cli.cmd_verify_algebra.s", "s"),
    ("cli.cmd_invariant.s", "s"),
    ("cli.cmd_xi.s", "s"),
    ("cli.cmd_evolve.s", "s"),
    ("cli.cmd_evolve.self_s", "s"),
    ("cli.cmd_report.s", "s"),
    ("io.write_s", "s"),
    ("io.bytes_written", "B"),
    ("accuracy.norm_drift", "1"),
    ("accuracy.invariant_drift_rel", "1"),
    ("accuracy.level_err", "1"),
    ("accuracy.xi_max_dev", "1"),
    ("accuracy.algebra_max_dev", "1"),
    ("accuracy.min_margin", "1"),
    ("trace.overhead_s", "s"),
    ("repo.src_lines", "lines"),
)
UNITS = dict(PER_LAYER)


def instrument(tracer: Tracer, modules: dict, linalg) -> None:
    """Wrap the TIMED and COUNTED names of ``modules`` (short name -> module),
    ``phasepoly.commutator`` under its aliases, ``PhasePoly`` construction
    and ``linalg.eigh``. ``tracer.restore()`` undoes all of it."""

    def after_eigh(args, result):
        n = args[0].shape[-1]
        tracer.counts["linalg.eigh.n3"] += n**3

    def after_evolve(args, evolved):
        tracer.counts["fockevolve.states_bytes"] += evolved.states.nbytes
        tracer.counts["evolve.steps"] += evolved.times.size - 1
        drift = tracer.counts["accuracy.norm_drift"]
        tracer.counts["accuracy.norm_drift"] = max(drift, evolved.norm_drift)

    after = {"fockevolve.evolve": after_evolve, "linalg.eigh": after_eigh}

    def wrap(owner, attr, name, counted=False):
        # a name the program no longer has is skipped; its metrics read 0
        fn = getattr(owner, attr, None)
        if fn is None:
            return
        if name == "ncmodel.build_h_nc":
            fn = _counting_h(tracer, fn)
        replacement = tracer.counted(fn, name) if counted else tracer.timed(fn, name, after.get(name))
        tracer.patch(owner, attr, replacement)

    for short, names in TIMED.items():
        for attr in names:
            wrap(modules[short], attr, f"{short}.{attr}")
    for short, names in COUNTED.items():
        for attr in names:
            wrap(modules[short], attr, f"{short}.{attr}", counted=True)
    for short in ("phasepoly", "ncmodel", "invariant"):
        attr = "commutator" if short == "phasepoly" else "ps_commutator"
        wrap(modules[short], attr, "phasepoly.commutator")
    poly = modules["phasepoly"].PhasePoly
    wrap(poly, "__post_init__", "phasepoly.PhasePoly.created", counted=True)
    wrap(linalg, "eigh", "linalg.eigh")


def _counting_h(tracer: Tracer, build_h_nc):
    """``build_h_nc`` whose returned operator counts its H(t) evaluations."""

    def build(p):
        h = build_h_nc(p)
        if not dataclasses.is_dataclass(h):  # an operator without a value field
            return h
        return dataclasses.replace(h, value=tracer.counted(h.value, "ncmodel.h_value"))

    return build


def session_layers(spans, counts, figures: dict) -> dict[str, float]:
    """Per-layer metrics of one traced session. ``figures`` carries what the
    runner measured outside the spans: accuracy read from the artifacts and
    ``io.bytes_written``."""
    agg = aggregate(spans)

    def get(name, key):
        return agg.get(name, {}).get(key, 0.0)

    steps = counts["evolve.steps"]
    out = {
        "linalg.eigh.calls": get("linalg.eigh", "calls"),
        "linalg.eigh.s": get("linalg.eigh", "s"),
        "linalg.eigh_per_step": get("linalg.eigh", "calls") / steps if steps else 0.0,
        "linalg.eigh.n3": counts["linalg.eigh.n3"],
        "fockevolve.calls": sum(v["calls"] for k, v in agg.items() if k.startswith("fockevolve.")),
        "fockevolve.states_bytes": counts["fockevolve.states_bytes"],
        "ncmodel.h_value.calls": counts["ncmodel.h_value"],
        "phasepoly.PhasePoly.created": counts["phasepoly.PhasePoly.created"],
        "lrsolve.flow_rhs.calls": counts["lrsolve.flow_rhs"],
        "lrsolve.closed_state.calls": counts["lrsolve.closed_state"],
        "mat2.commutator.calls": counts["mat2.commutator"],
        "io.write_s": get("fockevolve.write_evolution_csv", "s") + get("lrsolve.write_trajectory_csv", "s"),
        "accuracy.norm_drift": counts["accuracy.norm_drift"],
    }
    for name, _ in PER_LAYER:
        span_name, _, key = name.rpartition(".")
        if name not in out and key in ("calls", "s", "self_s"):
            out[name] = get(span_name, key)
    out.update(figures)
    return out


# accuracy is summarized by its worst session, everything else by the median
_WORST = {"accuracy.min_margin": min}


def combine(per_session: list[dict]) -> dict[str, float]:
    """One value per metric over a run's traced sessions."""
    out = {}
    for name, _ in PER_LAYER:
        values = [s[name] for s in per_session if name in s]
        if not values:
            continue
        if name.startswith("accuracy."):
            out[name] = _WORST.get(name, max)(values)
        else:
            out[name] = statistics.median(values)
    return out
