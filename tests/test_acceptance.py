"""Acceptance gate: one recorded pass/fail line per criterion.

Each test exercises a criterion end to end at its stated tolerance and
records a summary line (shown in the terminal summary) before asserting.
"""

import functools
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import record_criterion
from scipy.stats import chi2 as chi2_dist

from qguess import (
    DEFAULT_P_GRID,
    FidelityMerit,
    GuessingForm,
    MassarPopescuStrategy,
    assemble_bipartite,
    aligned_distance,
    average_fidelity_exact,
    average_merit,
    build_psi,
    collect_histogram,
    constraint_residual,
    cos4_density,
    cos4_strategy,
    density_from_mixture,
    derive_ab_form,
    fibonacci_directions,
    fit_ab_least_squares,
    guessing_density,
    histogram_chi2,
    ket_from_bloch,
    named_merit,
    optimize_ab,
    required_trials,
    reverse_outcomes,
    rotated_alice_basis,
    run_discrimination_experiment,
    standard_decomposition,
    symmetric_decomposition,
)
from qguess.cli import main


@pytest.fixture(scope="module")
def mp_histogram():
    return collect_histogram(MassarPopescuStrategy(), trials=1_000_000, bins=50, seed=0)


def test_average_fidelity_optimum_via_cli():
    runner = CliRunner()
    start = time.perf_counter()
    result = runner.invoke(
        main,
        ["fidelity", "--strategy", "massar-popescu", "--trials", "1000000"],
        catch_exceptions=False,
    )
    elapsed = time.perf_counter() - start
    payload = json.loads(result.output)
    mean = payload["mean"]
    ok = result.exit_code == 0 and abs(mean - 0.667) <= 1e-3 and elapsed < 60.0
    record_criterion(
        1, "fidelity-optimum", ok,
        f"mean={mean:.6f} vs 0.667 +/- 0.001, {elapsed:.1f}s",
    )
    assert ok


def test_guessing_density_shape(mp_histogram):
    probs = MassarPopescuStrategy().bin_probabilities(mp_histogram.theta_edges)
    chi2, dof = histogram_chi2(mp_histogram, probs)
    threshold = float(chi2_dist.ppf(0.999, dof))
    ok = dof == 49 and chi2 < threshold
    record_criterion(
        2, "guessing-density-shape", ok,
        f"chi2({dof})={chi2:.2f} < {threshold:.2f} for 1e6 trials in 50 bins",
    )
    assert ok


def test_decomposition_equality_and_steering():
    p_grid = np.linspace(0.0, 1.0, 101)
    worst_density = 0.0
    worst_rebuild = 0.0
    for p in p_grid:
        p = float(p)
        rho_std = density_from_mixture(standard_decomposition(p)).matrix
        rho_sym = density_from_mixture(symmetric_decomposition(p)).matrix
        worst_density = max(worst_density, float(np.max(np.abs(rho_std - rho_sym))))
        if p in (0.0, 1.0):
            continue  # product state, no second basis
        basis = rotated_alice_basis(p)
        bob_kets = tuple(ket_from_bloch(d) for _, d in symmetric_decomposition(p).members)
        rebuilt = assemble_bipartite((basis.ket0, basis.ket1), bob_kets, (0.5, 0.5))
        worst_rebuild = max(
            worst_rebuild, aligned_distance(rebuilt.amplitudes, build_psi(p).amplitudes)
        )
    ok = worst_density <= 1e-12 and worst_rebuild <= 1e-10
    record_criterion(
        3, "decomposition-equality", ok,
        f"density gap {worst_density:.2e} <= 1e-12, rebuild gap {worst_rebuild:.2e} <= 1e-10",
    )
    assert ok


def test_no_signaling_admissibility():
    directions = fibonacci_directions(200)
    p_grid = [float(p) for p in np.linspace(0.0, 1.0, 101)]
    worst = 0.0
    for a_frac in np.linspace(0.0, 1.0, 11):
        density = functools.partial(guessing_density, GuessingForm.from_a_fraction(float(a_frac)))
        for p in p_grid:
            worst = max(worst, constraint_residual(density, p, directions).max_residual)
    zs = [
        run_discrimination_experiment(
            MassarPopescuStrategy(), p, trials=1_000_000, seed=0, stream_block=i
        ).z
        for i, p in enumerate(DEFAULT_P_GRID)
    ]
    ok = worst < 1e-12 and max(zs) < 4.0
    record_criterion(
        4, "no-signaling-admissibility", ok,
        f"max residual {worst:.2e} < 1e-12 over 11 forms x 101 p x 200 dirs; "
        f"max z {max(zs):.2f} < 4 at 1e6 trials",
    )
    assert ok


def test_signaling_detection_power():
    trials = required_trials(cos4_density, 0.9, 0.2)
    strategy = cos4_strategy()
    z_values = [
        run_discrimination_experiment(
            strategy, 0.9, cap_half_angle=0.2, trials=trials, seed=s
        ).z
        for s in range(100)
    ]
    flagged = sum(z > 5.0 for z in z_values)
    ok = flagged >= 99
    record_criterion(
        5, "signaling-detection", ok,
        f"{flagged}/100 seeds flagged (z > 5) at {trials} trials, min z {min(z_values):.2f}",
    )
    assert ok


def test_form_recovery(mp_histogram):
    fit = fit_ab_least_squares(mp_histogram)
    target_a = 1.0 / (2.0 * math.pi)
    pull_a = abs(fit.A - target_a) / fit.se_A
    pull_b = abs(fit.B) / fit.se_B
    exact_dev = max(
        derive_ab_form(
            functools.partial(guessing_density, GuessingForm.from_a_fraction(float(a)))
        ).max_deviation
        for a in np.linspace(0.0, 1.0, 11)
    )
    cos4_dev = derive_ab_form(cos4_density).max_deviation
    ok = pull_a <= 3.0 and pull_b <= 3.0 and exact_dev < 1e-12 and cos4_dev > 1e-3
    record_criterion(
        6, "form-recovery", ok,
        f"pulls ({pull_a:.2f}, {pull_b:.2f}) <= 3; exact-form deviation {exact_dev:.2e} < 1e-12; "
        f"counterexample deviation {cos4_dev:.4f} > 1e-3",
    )
    assert ok


def test_merit_optimization():
    merits = [FidelityMerit(), named_merit("cos4"), named_merit("constant")]
    collinear = max(
        abs(
            average_merit(GuessingForm.from_a_fraction(0.5), m)
            - 0.5
            * (
                average_merit(GuessingForm.from_a_fraction(0.0), m)
                + average_merit(GuessingForm.from_a_fraction(1.0), m)
            )
        )
        for m in merits
    )
    scan_fid = optimize_ab(FidelityMerit())
    scan_cos4 = optimize_ab(named_merit("cos4"))
    mirror = reverse_outcomes(scan_fid.best_form)
    fidelity_ok = (
        len(scan_fid.a_fractions) == 1001
        and not scan_fid.tie
        and float(scan_fid.a_fractions[scan_fid.best_index]) == 1.0
        and scan_fid.best_form.B == 0.0
        and abs(scan_fid.best_value - 2.0 / 3.0) < 1e-10
    )
    monotone_ok = not scan_cos4.tie and float(scan_cos4.a_fractions[scan_cos4.best_index]) == 1.0
    mirror_ok = mirror.A == 0.0 and abs(average_fidelity_exact(mirror) - 1.0 / 3.0) < 1e-12
    ok = collinear < 1e-10 and fidelity_ok and monotone_ok and mirror_ok
    record_criterion(
        7, "merit-optimization", ok,
        f"collinearity {collinear:.2e} < 1e-10; fidelity argmax B=0 value {scan_fid.best_value:.10f}; "
        f"monotone-merit argmax B=0; mirror fidelity 1/3",
    )
    assert ok


def test_reproducibility(tmp_path):
    runner = CliRunner()
    commands = [
        ["fidelity", "--trials", "20000", "--seed", "7", "--workers", "3"],
        ["density", "--trials", "20000", "--bins", "25", "--seed", "7"],
        ["nosignal", "--trials", "5000", "--p", "0.8", "--seed", "7"],
        ["fit", "--trials", "50000", "--seed", "7"],
        ["scan", "--merit", "fidelity"],
    ]
    identical = 0
    for i, args in enumerate(commands):
        paths = [tmp_path / f"run{i}_{j}.txt" for j in range(2)]
        for path in paths:
            result = runner.invoke(main, args + ["--out", str(path)], catch_exceptions=False)
            assert result.exit_code == 0
        identical += paths[0].read_bytes() == paths[1].read_bytes()
    ok = identical == len(commands)
    record_criterion(
        8, "reproducibility", ok,
        f"{identical}/{len(commands)} subcommands byte-identical across repeated runs",
    )
    assert ok
