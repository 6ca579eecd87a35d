"""Contract of the built-in property suites: pass on defaults, degrade
visibly with a coarse stencil, and stay seed-robust."""

import pytest

from fanning_lab import cli
from fanning_lab import reduction as rd
from fanning_lab.cli import _SETTINGS
from fanning_lab.selftest import run_selftest

# the defaults of the selftest command and experiment
DEFAULTS = {key: default for key, (_, default) in _SETTINGS["selftest"].items()}

STENCIL_SENSITIVE = {
    "frame-independence",
    "wronskian-symmetry-of-K",
    "horizontal-wronskian-identity",
    "reparametrization-equivariance",
    "flag-curvature-round-sphere",
}


def test_fresh_build_all_properties_pass():
    results = run_selftest(**DEFAULTS)
    failed = [r.name for r in results if not r.passed]
    assert failed == []


def test_degraded_stencil_fails_stencil_dependent_checks():
    results = run_selftest(**dict(DEFAULTS, stencil_h=0.1))
    failed = {r.name for r in results if not r.passed}
    # the stencil-driven checks must fail and report their residuals
    assert STENCIL_SENSITIVE <= failed
    for r in results:
        if r.name in failed:
            assert r.residual > r.tolerance
    # checks that do not consume the stencil width still pass
    assert "fundamental-endomorphism-nilpotent" not in failed
    assert "katok-zermelo-cross-check" not in failed


def test_pass_fail_pattern_is_seed_robust():
    base = [(r.name, r.passed) for r in run_selftest(**DEFAULTS)]
    other = [(r.name, r.passed)
             for r in run_selftest(**dict(DEFAULTS, seed=987654))]
    assert base == other


def fail_first_oneill_call(monkeypatch):
    """Make the first O'Neill assembly, inside the reduction suite's redraw
    loop, raise a genuine (non-geometric) error."""
    real, calls = rd.oneill_endomorphism, []

    def once(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise TypeError("genuine error")
        return real(*args, **kwargs)

    monkeypatch.setattr(rd, "oneill_endomorphism", once)


def test_reduction_redraw_lets_a_genuine_error_through(monkeypatch, capsys):
    # only a transversality or degeneracy failure redraws the curve; any
    # other error would be raised on every draw and loop forever
    fail_first_oneill_call(monkeypatch)
    with pytest.raises(TypeError, match="genuine error"):
        run_selftest(**DEFAULTS)
    fail_first_oneill_call(monkeypatch)
    assert cli.main(["selftest"]) == cli.EXIT_NUMERIC
    assert capsys.readouterr().err == (
        "numeric failure: TypeError: genuine error\n")
