"""Contract of the built-in property suites: pass on defaults, degrade
visibly with a coarse stencil, and stay seed-robust."""

import math

import pytest

from fanning_lab import cli
from fanning_lab import jacobi as jb
from fanning_lab import reduction as rd
from fanning_lab.cli import _SETTINGS
from fanning_lab.errors import TransversalityFailure
from fanning_lab.selftest import run_selftest

# the defaults of the selftest command and experiment
DEFAULTS = {key: default for key, (_, default) in _SETTINGS["selftest"].items()}

STENCIL_SENSITIVE = {
    "frame-independence",
    "wronskian-symmetry-of-K",
    "horizontal-wronskian-identity",
    "flag-curvature-round-sphere",
    "oneill-formula-equality",
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


@pytest.mark.parametrize("seed", [0, 1, 4, 20])
def test_oneill_formula_equality_passes_at_small_seeds(seed):
    # the reduction suite's graph curves sit on the stencil of width
    # stencil_h, where the O'Neill formula holds to 1e-9; at width 1e-2 its
    # h^6 truncation error reaches 3.4e-3 at seed 1.  Every other check
    # passes too: reparametrization-equivariance once both sides read the
    # same nodes (it failed at seeds 0, 1 and 20), frame-independence on
    # an order-6 stencil (it failed at seeds 4 and 20)
    results = run_selftest(**dict(DEFAULTS, seed=seed))
    assert [r.name for r in results if not r.passed] == []


def test_contact_orbit_takes_the_reduction_step(monkeypatch):
    # the contact check reads one order-6 stencil of spacing 1e-2, so its
    # orbit runs at the reduction spacing and step, not the frame ones,
    # and only the stencil's 3 spacings past the time read
    real, windows = rd.contact_reduce, []

    def spy(orbit, t):
        windows.append((orbit.h, orbit.ts[1] - orbit.ts[0],
                        orbit.ts[-1] - t))
        return real(orbit, t)

    monkeypatch.setattr(rd, "contact_reduce", spy)
    run_selftest(**DEFAULTS)
    h = rd._REDUCTION_H
    assert windows == [(h, pytest.approx(jb.WINDOW_STEP, rel=1e-9),
                        pytest.approx(3 * h, rel=1e-9))]


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


def test_reduction_draws_that_all_fail_are_reported_not_retried(monkeypatch):
    # a fault that makes every draw raise a geometric failure ends the
    # bounded redraw loop (50 draws) and fails both reduction checks with
    # residual inf; the Hopf check after the loop runs the real assembly
    real, calls = rd.oneill_endomorphism, []

    def fail_in_the_loop(setup, fs, reduced):
        calls.append(1)
        if setup.omega.Omega.shape == (4, 4):
            raise TransversalityFailure("fault")
        return real(setup, fs, reduced)

    monkeypatch.setattr(rd, "oneill_endomorphism", fail_in_the_loop)
    results = {r.name: r for r in run_selftest(**DEFAULTS)}
    assert len(calls) == 51
    for name in ("reduced-wronskian-is-restriction", "oneill-formula-equality"):
        assert results[name].residual == math.inf
        assert not results[name].passed
    assert results["hopf-oneill-triple"].passed
