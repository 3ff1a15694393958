import itertools
import json
from pathlib import Path

import layers
import oracles
import run
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def test_benchmark_json_lists_exactly_the_reported_metrics():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == workloads.WHY


def test_session_layers_reports_every_metric_but_the_run_level_ones():
    spans = [
        (1, 0, "linalg.eigh", 1.0, 2.0),
        (2, 0, "linalg.eigh", 2.0, 3.5),
        (0, None, "fockevolve.evolve", 0.0, 4.0),
    ]
    counts = {"evolve.steps": 1, "linalg.eigh.n3": 2 * 8**3}
    counts = dict.fromkeys(
        ("fockevolve.states_bytes", "ncmodel.h_value", "phasepoly.PhasePoly.created",
         "lrsolve.flow_rhs", "lrsolve.closed_state", "mat2.commutator", "accuracy.norm_drift"),
        0,
    ) | counts
    figures = {f"accuracy.{k}": 0.0 for k in
               ("invariant_drift_rel", "level_err", "xi_max_dev", "algebra_max_dev", "min_margin")}
    figures["io.bytes_written"] = 10
    out = layers.session_layers(spans, counts, figures)
    assert set(layers.UNITS) - set(out) == {"trace.overhead_s", "repo.src_lines"}
    assert out["linalg.eigh.calls"] == 2
    assert out["linalg.eigh_per_step"] == 2
    assert out["linalg.eigh.s"] == 2.5
    assert out["fockevolve.evolve.self_s"] == 1.5
    assert out["fockevolve.calls"] == 1


def test_combine_takes_medians_and_worst_accuracy():
    sessions = [
        {"linalg.eigh.s": 1.0, "accuracy.level_err": 1e-12, "accuracy.min_margin": 0.0},
        {"linalg.eigh.s": 3.0, "accuracy.level_err": 1e-11, "accuracy.min_margin": -1e-17},
        {"linalg.eigh.s": 2.0, "accuracy.level_err": 1e-13, "accuracy.min_margin": 0.5},
    ]
    out = layers.combine(sessions)
    assert out == {"linalg.eigh.s": 2.0, "accuracy.level_err": 1e-11, "accuracy.min_margin": -1e-17}


def take(workload, seed, n):
    return list(itertools.islice(workloads.sessions(workload, seed), n))


def test_sessions_are_determined_by_the_seed():
    for workload in workloads.GENERATORS:
        assert take(workload, 3, 4) == take(workload, 3, 4)
        assert take(workload, 3, 4) != take(workload, 4, 4)


def test_generated_parameters_keep_the_verdict_at_pass():
    for params, argvs in take("td-evolve", 1, 20):
        assert params["gamma"] != 0.0
        assert [a[0] for a in argvs] == list(workloads.FULL_SESSION)
    for params, _ in take("comm-evolve", 1, 20):
        assert params["theta"] == params["eta"] == 0.0
        assert oracles.constants_admissible(params)
    modes = set()
    for params, argvs in take("sweep", 1, 100):
        assert abs(params["theta"] * params["eta"]) / 4.0 < oracles.CONSISTENCY_THRESHOLD
        assert "evolve" not in (a[0] for a in argvs)
        modes.add((params["theta"] == 0.0, params["gamma"] == 0.0))
    assert modes == {(True, True), (False, True), (False, False)}


def test_argv_passes_negative_values_as_key_value_pairs():
    assert workloads.argv_for("xi", {"t0": -1e-5}) == ["xi", "--t0=-1e-05"]
