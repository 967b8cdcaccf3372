"""The benchmark's span tracer (perfbench/tracer.py) against the package.

The tracer wraps package names it looks up by attribute, so a renamed or
deleted name breaks the benchmark's traced runs. This loads the tracer
read-only from its file, runs a short closed loop under it and checks that
uninstall() puts every name back.
"""

import dataclasses
import os
import types

from needle_mpc import calibration, harness, mpc, scenario

TRACER_PATH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracer.py")


def _load_tracer():
    """perfbench/tracer.py as a module, compiled from its text: no bytecode
    cache is written beside it."""
    module = types.ModuleType("perfbench_tracer")
    with open(TRACER_PATH) as fh:
        exec(compile(fh.read(), TRACER_PATH, "exec"), module.__dict__)
    return module


def _namespaces():
    """Every namespace the tracer patches, as a copy of its attributes."""
    owners = (harness, mpc, scenario, calibration, mpc.RecedingHorizonController)
    return {owner: dict(vars(owner)) for owner in owners}


def test_traced_run_records_the_plant_step_and_uninstall_restores_every_name():
    before = _namespaces()
    base = scenario.load_preset("target1")
    short = dataclasses.replace(base, run=dataclasses.replace(base.run, steps=5))
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        assert harness.step_exact is not before[harness]["step_exact"]
        result = harness.run_closed_loop(short)
    finally:
        tracer.uninstall()
    assert len(result.records) == 5
    table = tracer.table()
    assert table["kinematics.plant_step"][0] == 5
    assert table["harness.loop"][0] == 1
    assert not tracer.installed
    assert _namespaces() == before
    # names kept only for the tracer, restored as the placeholders they are
    assert harness.step_euler is None and mpc.rollout is None
    assert calibration.estimate_curvature is None and calibration.fit_gain is None
