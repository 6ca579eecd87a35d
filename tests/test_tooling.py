"""Guards for the package's public names and for what the traced benchmark
(perfbench/tracer.py) assumes about the package: every exported and every
traced name exists, each function is looked up only under the names the
tracer wraps, and a traced run counts calls and grid reads."""

import importlib
import pkgutil
import types
from pathlib import Path

import numpy as np
import pytest

import fanning_lab
from fanning_lab import jacobi as jb
from fanning_lab import metrics as mx

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    # executed from source into a fresh module, so no bytecode is written
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), module.__dict__)
    return module


def package_modules():
    return {name: importlib.import_module(f"fanning_lab.{name}")
            for _, name, _ in pkgutil.iter_modules(fanning_lab.__path__)}


def traced_functions(modules):
    """(home module, dotted name, function object) for every traced name."""
    out = []
    for mod, names in load_tracer().LAYERS.items():
        for name in names:
            owner = modules[mod]
            for attr in name.split("."):
                owner = getattr(owner, attr)
            out.append((mod, name, owner))
    return out


def test_exported_names_resolve():
    for modname, module in package_modules().items():
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), \
                f"fanning_lab.{modname}.__all__ lists missing {name!r}"


def test_traced_names_resolve():
    modules = package_modules()
    traced = traced_functions(modules)
    assert traced
    for mod, name, fn in traced:
        assert callable(fn), f"{mod}.{name} is not callable"


def test_traced_functions_not_bound_elsewhere():
    modules = package_modules()
    homes = {id(fn): (mod, name) for mod, name, fn in traced_functions(modules)}
    for modname, module in modules.items():
        for attr, value in vars(module).items():
            home = homes.get(id(value))
            if home is not None and home[0] != modname:
                raise AssertionError(
                    f"fanning_lab.{modname}.{attr} binds "
                    f"{home[0]}.{home[1]}; the tracer would miss those calls")


def test_tracer_counts_a_flag_and_an_orbit_read():
    # the tracer wraps the package from outside and reads orbit.ts and
    # orbit.states to tell grid reads from off-grid ones
    m = mx.zoo_metric("sphere")
    v = mx.PhasePoint(np.array([0.2, -0.1]), np.array([0.6, 0.3]))
    transport = jb.transport
    tracer = load_tracer().Tracer(package_modules())
    with tracer:
        jb.flag_curvature(m, v, [0.1, 1.0])
        orbit = jb.transport(m, v, reach=10, h=jb.DEFAULT_FRAME_H)
        orbit.state(0.005)
    assert jb.transport is transport
    out = tracer.summary(rows=1)
    assert out["jacobi.flag_curvature.calls"] == 1
    assert out["jacobi.transport.calls"] == 2
    assert out["jacobi.jacobi_frame.calls"] == 1
    assert out["jacobi.OrbitData.state.calls"] == 1
    assert out["jacobi.OrbitData.frame_data.calls"] == 5
    assert out["metrics.spray_data.calls"] > 17
    assert out["jacobi.OrbitData.state.offgrid_calls"] == 0
    assert 0.0 < out["jacobi.transport.read_frac"] <= 1.0


MUTANTS = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"


def load_mutants():
    module = types.ModuleType("mutants")
    module.__file__ = str(MUTANTS)
    exec(compile(MUTANTS.read_text(), str(MUTANTS), "exec"), module.__dict__)
    return module


def test_each_mutant_applies_to_exactly_one_place():
    # the mutation probe (tools/mutants.py, run outside tier-1) replaces
    # text that must still occur once, and names killers that still exist
    module = load_mutants()
    root = MUTANTS.parents[1]
    names = [m.name for m in module.MUTANTS]
    assert len(names) == len(set(names)) >= 15
    for m in module.MUTANTS:
        assert (root / m.path).read_text().count(m.old) == 1, m.name
        assert m.new != m.old
        assert bool(m.killer) != bool(m.equivalent), m.name
        if m.killer:
            path, test = m.killer.split("::")
            assert f"def {test.split('[')[0]}(" in (root / path).read_text()


def test_a_pytest_run_past_its_time_limit_is_an_unexpected_hang(capsys):
    module = load_mutants()
    module.TIMEOUT_S = 0.01   # no pytest run starts that fast
    with pytest.raises(module.Hung):
        module.pytest_fails(MUTANTS.parents[1], ["tests/test_tooling.py"])
    module.MUTANTS = module.MUTANTS[:1]
    module.probe = lambda m: ("hung", "in (tier-1)")
    assert module.main() == 1
    out = capsys.readouterr().out
    assert " hung " in out and "UNEXPECTED (expected killed)" in out
