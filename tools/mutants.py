"""Mutation probe: does the tier-1 suite notice a one-line fault?

    python tools/mutants.py

Each mutant replaces one piece of text, which must occur exactly once in
its file, in a fresh copy of the source tree (a temporary directory; the
checkout itself is never written).  The mutant's expected killer runs
first; if it passes, the whole tier-1 suite runs with -x, less the guard
that each mutant's text still occurs once (which any mutant fails).  A mutant is
killed when a test fails, and survives otherwise.  A mutant listed as
equivalent carries the reason its fault cannot change any result, and is
expected to survive.  Each pytest run has a time limit; a run that exceeds
it ends the mutant's probe as hung, which is never the expected outcome.
One line is printed per mutant, with its wall time; the exit code is 1 when
an expected kill survived, an equivalent mutant was killed, or a run hung.

It uses only the standard library (and pytest, like tier-1).  It is not
part of tier-1: a full run takes minutes.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PKG = "src/fanning_lab/"
# the guard that every mutant's old text occurs once fails on every mutant
SELF_CHECK = "tests/test_tooling.py::test_each_mutant_applies_to_exactly_one_place"
TIER1 = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
         "--continue-on-collection-errors", "--deselect", SELF_CHECK]
TIMEOUT_S = 300   # per pytest run; tier-1 takes about 110 s on two cores


class Mutant(NamedTuple):
    name: str
    path: str          # relative to the repository root
    old: str           # occurs exactly once in path
    new: str
    killer: str        # pytest node id, or "" for an equivalent mutant
    equivalent: str = ""   # why the fault cannot change a result


MUTANTS = [
    # -- the seven faults of the first probe ---------------------------------
    Mutant("schwarzian-pdot-sign", PKG + "fanning.py",
           "return 2.0 * Q - 0.5 * (P @ P) - Pdot",
           "return 2.0 * Q - 0.5 * (P @ P) + Pdot",
           "tests/test_acceptance.py::test_criterion_02_sphere_constant_plus_one"),
    Mutant("spray-dN-cross-block", PKG + "metrics.py",
           "    dN[..., :, n:] += E2[..., n:, :n]\n", "",
           "tests/test_acceptance.py::"
           "test_criterion_05_wronskian_equals_fundamental_tensor"),
    Mutant("horizontal-frame-quarter", PKG + "fanning.py",
           "    Hframe = ft.Adot + 0.5 * ft.A @ P\n    n2 = Fdot.shape[-1]",
           "    Hframe = ft.Adot + 0.25 * ft.A @ P\n    n2 = Fdot.shape[-1]",
           "tests/test_acceptance.py::"
           "test_criterion_07_horizontal_wronskian_identity"),
    Mutant("newton-tolerance", PKG + "metrics.py",
           "todo = ~(res < 1e-12)", "todo = ~(res < 1e-6)",
           "tests/test_deformations.py::"
           "test_katok_start_does_not_change_the_answer[0.3]"),
    Mutant("chart-check-noop", PKG + "jacobi.py",
           "    raise_at(OutOfChart, ~metric.domain.contains(x), describe)",
           "    return",
           "tests/test_cli.py::"
           "test_main_names_the_failing_orbit_time[between-samples]"),
    Mutant("newton-no-halving", PKG + "metrics.py",
           "lam *= 0.5", "lam *= 1.0",
           "tests/test_metrics.py::"
           "test_newton_halves_steps_that_do_not_reduce_the_residual"),
    Mutant("newton-takes-any-step", PKG + "metrics.py",
           "take = pending & (trial[2] < res)", "take = pending",
           "tests/test_metrics.py::"
           "test_newton_halves_steps_that_do_not_reduce_the_residual"),
    Mutant("smallness-bound", PKG + "deformations.py",
           "norms >= 1.0,", "norms >= 1.5,",
           "tests/test_deformations.py::test_projective_smallness_violation"),
    # -- jets.stack and the code that reads chart fields through it ----------
    Mutant("stack-float-entry", PKG + "jets.py",
           "            out[0][a] = ent\n", "            out[0][a] = 0.0\n",
           "tests/test_jets.py::"
           "test_stack_places_values_and_derivatives_after_the_batch_axes"),
    Mutant("stack-entry-axis", PKG + "jets.py",
           "    return [s.transpose(tuple(range(1, nb + 1)) + (0,)\n"
           "                        + tuple(range(nb + 1, s.ndim))) for s in out]",
           "    return [s.reshape(s.shape[1:nb + 1] + (k,) + s.shape[nb + 1:])\n"
           "            for s in out]",
           "tests/test_jets.py::"
           "test_stack_places_values_and_derivatives_after_the_batch_axes"),
    Mutant("x-jet-T-weights", PKG + "metrics.py",
           "T += w[..., a, None, None, None] * ent.T", "T += ent.T",
           "tests/test_metrics.py::test_energy_jet_matches_full_phase_jet[3-sphere]"),
    Mutant("riemannian-route-dropped", PKG + "metrics.py",
           '    if m.family == "riemannian":\n'
           "        return _fiber_quadratic_energy_jet(m, jet_variables(x, "
           "order=order),\n                                           y, order)\n",
           "",
           "tests/test_metrics.py::test_metric_fields_see_only_x_jets"),
    Mutant("christoffel-first-kind-sign", PKG + "jacobi.py",
           '- np.einsum("...jkl->...ljk", dg))',
           '+ np.einsum("...jkl->...ljk", dg))',
           "tests/test_acceptance.py::"
           "test_criterion_04_oracle_equivalence_conformal"),
    Mutant("omega-check-noop", PKG + "metrics.py",
           "    return _jet_omega(J, _fiber_tensor(J, p.x, p.y))\n",
           "    return _jet_omega(J, _sym(0.5 * J.H[..., m.n:, m.n:]))\n",
           "tests/test_metrics.py::"
           "test_omega_rejects_an_indefinite_fundamental_tensor"),
    # -- with_one_form --------------------------------------------------------
    Mutant("one-form-jet-sign", PKG + "metrics.py",
           "f = E0.sqrt() + _phase_jet(", "f = E0.sqrt() - _phase_jet(",
           "tests/test_metrics.py::"
           "test_energy_jet_matches_full_phase_jet[2-projective-randers]"),
    Mutant("one-form-F-sign", PKG + "metrics.py",
           "return base.F(x, y) + sum(", "return base.F(x, y) - sum(",
           "tests/test_metrics.py::test_energy_jet_matches_full_phase_jet[2-randers]"),
    Mutant("one-form-third-derivatives", PKG + "metrics.py",
           "        e = [_contract(y, b) for b in B[:3]] + B[3:]\n"
           "        zero = ",
           "        e = [_contract(y, b) for b in B[:3]] + [0.0 * B[3]]\n"
           "        zero = ",
           "tests/test_metrics.py::"
           "test_energy_jet_matches_full_phase_jet[3-projective-sphere]"),
    # -- deformation checks ---------------------------------------------------
    Mutant("closedness-noop", PKG + "deformations.py",
           "np.abs(jac - jac.swapaxes(-1, -2))", "np.abs(jac - jac)",
           "tests/test_deformations.py::"
           "test_closedness_check_fails_on_a_small_form_that_is_not_closed"),
    Mutant("killing-transport-term", PKG + "deformations.py",
           'np.einsum("...k,...ijk->...ij", Vv, dg)',
           'np.einsum("...k,...ijk->...ij", 0.0 * Vv, dg)',
           "tests/test_deformations.py::test_killing_residual_of_a_translation"),
    Mutant("katok-warm-start-sphere", PKG + "deformations.py",
           "        return _zermelo_norm(epsilon, x, v)[1]\n",
           "        c = mx.sphere_conformal_factor(x, 1.0)\n"
           "        return [c * v[0], c * v[1]]\n",
           "tests/test_deformations.py::"
           "test_katok_support_solves_take_one_residual_evaluation[0.3]"),
    # -- SubmersionScenario.constraint_grad: the constant-fiber row ---------
    Mutant("constraint-y-part", PKG + "reduction.py",
           "             g[..., f, :]], axis=-1)",
           "             0.0 * g[..., f, :]], axis=-1)",
           "tests/test_reduction.py::"
           "test_constraint_grad_numeric_matches_closed_form[trivial]"),
    Mutant("constraint-x-part", PKG + "reduction.py",
           '[np.einsum("...i,...ip->...p", y, dg[..., :, f, :]),',
           '[0.0 * np.einsum("...i,...ip->...p", y, dg[..., :, f, :]),',
           "tests/test_reduction.py::"
           "test_constraint_grad_numeric_matches_closed_form[hopf]"),
    # -- the symplectic reduction: gauge solves and the O'Neill blocks --------
    Mutant("gauge-solve-sign", PKG + "reduction.py",
           "np.vstack([L, U.T @ A]), -np.vstack([Lb, U.T @ Ab]))",
           "np.vstack([L, U.T @ A]), np.vstack([Lb, U.T @ Ab]))",
           "tests/test_reduction.py::"
           "test_reduce_curve_matches_least_squares_reference"),
    Mutant("second-derivative-factor", PKG + "reduction.py",
           "acc = ft.Addot @ beta + 2.0 * ft.Adot @ beta_dot",
           "acc = ft.Addot @ beta + 1.0 * ft.Adot @ beta_dot",
           "tests/test_reduction.py::"
           "test_reduce_curve_matches_least_squares_reference"),
    Mutant("orthogonal-section-Wdot", PKG + "reduction.py",
           "beta_h.T @ (0.5 * (Wdot + Wdot.T))",
           "beta_h.T @ (0.0 * (Wdot + Wdot.T))",
           "tests/test_reduction.py::test_oneill_matches_projector_reference"),
    Mutant("oneill-v-to-h-sign", PKG + "reduction.py",
           "A_mat[:p, p:] = -X[:p, p:]", "A_mat[:p, p:] = X[:p, p:]",
           "tests/test_reduction.py::test_oneill_matches_projector_reference"),
    Mutant("intersection-dimension-noop", PKG + "reduction.py",
           "        if beta_j.shape[1] != p:\n", "        if False:\n",
           "tests/test_reduction.py::test_reduce_curve_transversality_failure"),
    Mutant("omega-transposed-in-C", PKG + "reduction.py",
           "C=comp.T @ omega.Omega,", "C=comp.T @ omega.Omega.T,", "",
           equivalent="Omega^T = -Omega negates C, and so both sides of "
                      "C A beta' = -C Adot beta and the row C w whose size "
                      "`project` checks"),
    # -- exact coordinates: graph gauge, quotient pairing, carried betas ------
    Mutant("gauge-inverse-dropped", PKG + "reduction.py",
           "        H = ft.A @ beta\n",
           "        beta = b\n        H = ft.A @ beta\n",
           "tests/test_reduction.py::"
           "test_reduced_frames_are_graphs_over_the_center"),
    Mutant("isotropy-check-noop", PKG + "reduction.py",
           "    if np.max(np.abs(comp.T @ omega.Omega @ comp), initial=0.0) > (",
           "    if 0.0 * np.max(np.abs(comp.T @ omega.Omega @ comp), "
           "initial=0.0) > (",
           "tests/test_reduction.py::"
           "test_coisotropic_setup_rejects_non_coisotropic"),
    Mutant("membership-check-noop", PKG + "reduction.py",
           "        if off > 1e-8 * np.max(np.abs(Omega)) * max(",
           "        if 0.0 * off > 1e-8 * np.max(np.abs(Omega)) * max(",
           "tests/test_reduction.py::test_project_refuses_columns_outside_w"),
    Mutant("oneill-basis-swapped", PKG + "reduction.py",
           "np.hstack([oneill.beta_h, oneill.beta_v]), alpha)",
           "np.hstack([oneill.beta_v, oneill.beta_h]), alpha)",
           "tests/test_reduction.py::test_hopf_oneill_triple"),
    Mutant("oneill-neighbour-beta-dot", PKG + "reduction.py",
           "reduced.betas[c_idx], reduced.beta_dots[c_idx]",
           "reduced.betas[c_idx], reduced.beta_dots[c_idx + 1]",
           "tests/test_reduction.py::test_oneill_matches_projector_reference"),
    # -- orthonormal quotient coordinates and the trivial-quotient guard -----
    Mutant("project-through-the-form", PKG + "reduction.py",
           "        return self.quotient_basis.T @ cols\n",
           "        return self.quotient_basis.T @ Omega @ cols\n",
           "tests/test_reduction.py::"
           "test_reduction_does_not_depend_on_the_quotient_basis"),
    Mutant("quotient-basis-keeps-w-omega", PKG + "reduction.py",
           "    U, _, _ = np.linalg.svd(Wbasis - comp @ (comp.T @ Wbasis),\n",
           "    U, _, _ = np.linalg.svd(Wbasis,\n",
           "tests/test_reduction.py::"
           "test_coisotropic_setup_orthonormal_quotient_basis"),
    Mutant("window-step-doubled", PKG + "jacobi.py",
           "WINDOW_STEP = 2.5e-3\n", "WINDOW_STEP = 5e-3\n",
           "tests/test_reduction.py::"
           "test_submersion_accuracy_at_the_reduction_step"),
    Mutant("lagrangian-guard-noop", PKG + "reduction.py",
           "    if setup.omega_R is None:\n", "    if False:\n",
           "tests/test_reduction.py::test_reduce_curve_refuses_a_lagrangian_w"),
    # -- transport lanes, frame windows, settings, Randers validity -----------
    Mutant("flow-lane-sign", PKG + "jacobi.py",
           "sign = np.array([[1.0], [-1.0]])",
           "sign = np.array([[1.0], [1.0]])",
           "tests/test_jacobi.py::test_transport_euclidean_linear_flow"),
    Mutant("window-ignores-the-spacing", PKG + "jacobi.py",
           "    steps = reach * _steps(h / WINDOW_STEP)\n",
           "    steps = _steps(reach * h / WINDOW_STEP)\n",
           "tests/test_jacobi.py::"
           "test_frame_resolution_puts_stencil_nodes_on_the_grid[0.0007-2000-6]"),
    Mutant("window-one-step-per-spacing", PKG + "jacobi.py",
           "    steps = reach * _steps(h / WINDOW_STEP)\n",
           "    steps = reach\n",
           "tests/test_jacobi.py::"
           "test_wide_stencil_window_takes_steps_of_the_window_step"),
    # Addot summed from the samples alone: the rounding of the weights'
    # sums leaves a flat metric a curvature of eps / h^2
    Mutant("frame-stencil-drops-the-node", PKG + "jacobi.py",
           "Addot = sum(wk * (Ak - Adots[j]) for wk, Ak in zip(w, Adots))",
           "Addot = sum(wk * Ak for wk, Ak in zip(w, Adots))",
           "tests/test_jacobi.py::"
           "test_flat_flag_curvature_is_exactly_zero_at_every_width[0.0008]"),
    # reductions read at 1e-2 (4 RK4 steps per spacing): the default flags
    # hold their bounds, random horizontal flags do not
    Mutant("reduction-stencil-at-1e-2", PKG + "reduction.py",
           "_REDUCTION_H = jb.WINDOW_STEP\n", "_REDUCTION_H = 1e-2\n",
           "tests/test_reduction.py::"
           "test_submersion_accuracy_on_random_horizontal_flags"),
    Mutant("count-accepts-zero", PKG + "cli.py",
           "_is_integer(v) and v >= 1,", "_is_integer(v) and v >= 0,",
           "tests/test_cli.py::test_main_names_the_rejected_setting[samples-0]"),
    Mutant("randers-check-without-g", PKG + "metrics.py",
           "np.sum(b * np.linalg.solve(G, b[..., None])[..., 0], -1)",
           "np.sum(b * b, -1)",
           "tests/test_metrics.py::"
           "test_randers_validity_names_the_lowest_failing_grid_point"),
    # -- structural zeros of jets and the one jet at a window's base point ---
    Mutant("product-keeps-h-zero", PKG + "jets.py",
           "        return self._like(v, g, H, T, False, tz)\n",
           "        return self._like(v, g, H, T, a.hz and b.hz, tz)\n",
           "tests/test_jets.py::"
           "test_flagged_jet_arithmetic_equals_dense_arithmetic[3-scalar]"),
    Mutant("compose-reads-t-flag-for-h-term", PKG + "jets.py",
           "                       None if self.hz\n",
           "                       None if self.tz\n",
           "tests/test_jets.py::"
           "test_compose_skips_each_structural_zero_on_its_own[scalar]"),
    Mutant("omega-transposed-mixed-block", PKG + "metrics.py",
           "    dxi_dx = 0.5 * J.H[..., n:, :n]\n",
           "    dxi_dx = 0.5 * J.H[..., :n, n:]\n",
           "tests/test_acceptance.py::"
           "test_criterion_05_wronskian_equals_fundamental_tensor"),
    Mutant("submersion-g-from-the-lower-block", PKG + "reduction.py",
           "    g = orbit.omega.Omega[:n, n:]\n",
           "    g = orbit.omega.Omega[n:, :n]\n",
           "tests/test_reduction.py::test_hopf_oneill_triple"),
    Mutant("contact-spray-off-the-base-point", PKG + "reduction.py",
           "    G0, _ = mx._jet_spray(J, g0, v0.y)\n",
           "    G0, _ = orbit.sprays[-1]\n",
           "tests/test_jacobi.py::"
           "test_contact_reduce_sphere_identities[sphere-tight]"),
    Mutant("contact-r-coordinates-transposed", PKG + "reduction.py",
           "    Mr = orbit.state(t)[2] @ r\n",
           "    Mr = orbit.state(t)[2].T @ r\n",
           "tests/test_jacobi.py::"
           "test_contact_reduce_sphere_identities[sphere-tight]"),
    # -- F^2 = g(y, y) off the tensor a job already holds --------------------
    Mutant("flag-curvature-without-gyy", PKG + "jacobi.py",
           "    den = (w.mT @ inv.W @ w) * (y.mT @ inv.W @ y)\n",
           "    den = w.mT @ inv.W @ w\n",
           "tests/test_jacobi.py::"
           "test_flag_curvature_representative_invariance[sphere]"),
    # -- the geodesic leg's Gragg-Bulirsch-Stoer step ------------------------
    Mutant("gbs-drops-top-rung", PKG + "numkit.py",
           "GBS_RUNGS = (2, 4, 6, 8)", "GBS_RUNGS = (2, 4, 6)",
           "tests/test_jacobi.py::"
           "test_geodesic_at_the_orbit_resolution_on_unit_sphere"
           "[1.0-2e-12-5e-13]"),
    Mutant("gbs-linear-neville-ratio", PKG + "numkit.py",
           "ratio = (n / GBS_RUNGS[j - k]) ** 2",
           "ratio = n / GBS_RUNGS[j - k]",
           "tests/test_jacobi.py::"
           "test_geodesic_at_the_orbit_resolution_on_unit_sphere"
           "[1.0-2e-12-5e-13]"),
    # a finished rung left running one substep too many in the lockstep
    Mutant("gbs-rung-one-substep-long", PKG + "numkit.py",
           "np.count_nonzero(rungs <= k)", "np.count_nonzero(rungs < k)",
           "tests/test_numkit.py::test_gbs_step_is_eighth_order_in_8_calls"),
]


def apply(mutant: Mutant, root: Path) -> None:
    """Write the mutant into the tree at root."""
    path = root / mutant.path
    text = path.read_text()
    if text.count(mutant.old) != 1:
        raise SystemExit(f"{mutant.name}: old text occurs "
                         f"{text.count(mutant.old)} times in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new))


class Hung(Exception):
    """A pytest run exceeded TIMEOUT_S."""


def pytest_fails(tree: Path, args) -> tuple:
    """(whether pytest failed, the first failing node id or ''); raises
    Hung when the run exceeds TIMEOUT_S."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, *TIER1, *args], cwd=tree,
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise Hung(" ".join(args) or "(tier-1)") from None
    first = next((line.split()[1] for line in proc.stdout.splitlines()
                  if line.startswith(("FAILED ", "ERROR "))), "")
    return proc.returncode != 0, first


def probe(mutant: Mutant) -> tuple:
    """(outcome, "by" the killing test or "in" the hung run, or "") for one
    mutant, in a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", "*.egg-info"))
        apply(mutant, tree)
        try:
            if mutant.killer:
                failed, _ = pytest_fails(tree, [mutant.killer])
                if failed:
                    return "killed", f"by {mutant.killer}"
            failed, first = pytest_fails(tree, [])
        except Hung as exc:
            return "hung", f"in {exc}"
        return ("killed", f"by {first or '(tier-1)'}") if failed else (
            "survived", "")


def main() -> int:
    bad = 0
    start = time.monotonic()
    for m in MUTANTS:
        t0 = time.monotonic()
        outcome, note = probe(m)
        expected = "survived" if m.equivalent else "killed"
        bad += outcome != expected
        note = note or f"equivalent: {m.equivalent}"
        if outcome != expected:
            note += f"  UNEXPECTED (expected {expected})"
        print(f"{m.name:30s} {outcome:8s} {time.monotonic() - t0:6.1f} s  "
              f"{note}", flush=True)
    print(f"{len(MUTANTS)} mutants, {bad} unexpected, "
          f"{time.monotonic() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
