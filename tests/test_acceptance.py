"""Full acceptance gate: eleven checks, one printed verdict line each.

Each check prints ``criterion NN <name>: PASS|FAIL`` before asserting, so a
plain ``pytest -s tests/test_acceptance.py`` reads as a checklist.  The
Monte Carlo checks use frozen seeds; tolerances are stated inline.
"""

import json
import time

import numpy as np
import pytest

from quantify import (
    ScenarioSpec,
    ScoredDataset,
    project_simplex,
    ratio_estimate,
    rng_from,
    run_combined_study,
    run_coverage_study,
    run_mse_study,
    run_multiclass_study,
    run_power_study,
    run_regression_study,
    solve_weights,
    symmetric_gaussian,
    table_scenario,
)
from quantify.cli import main


def verdict(number: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"criterion {number:02d} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


class TestAcceptance:
    def test_01_exact_population_means_recover_theta(self):
        """Feeding group means that are exactly their population values must
        return the mixing weight itself (error <= 1e-12), in under a second."""
        rng = rng_from(2001)
        start = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            mu0 = float(rng.uniform(-10.0, 10.0))
            mu1 = mu0 + float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.1, 10.0))
            theta = float(rng.random())
            mean_u = (1.0 - theta) * mu0 + theta * mu1
            scored = ScoredDataset(
                unlabeled=np.array([[mean_u]]),
                classes=(np.array([[mu0]]), np.array([[mu1]])),
            )
            worst = max(worst, abs(ratio_estimate(scored).theta_raw - theta))
        elapsed = time.perf_counter() - start
        verdict(1, "exact-mean recovery", worst <= 1e-12 and elapsed < 1.0,
                f"max error {worst:.2e}, {elapsed:.2f}s")

    def test_02_affine_score_invariance(self):
        rng = rng_from(2002)
        worst = 0.0
        for _ in range(1000):
            n0, n1 = int(rng.integers(5, 31)), int(rng.integers(5, 31))
            n_u = int(rng.integers(5, 51))
            g0 = rng.normal(0.0, 1.0, n0)
            g1 = rng.normal(3.0, 1.0, n1)
            gu = rng.normal(1.5, 2.0, n_u)
            base = ratio_estimate(ScoredDataset(gu, (g0, g1))).theta_raw
            a = float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.1, 5.0))
            b = float(rng.uniform(-10.0, 10.0))
            moved = ratio_estimate(
                ScoredDataset(a * gu + b, (a * g0 + b, a * g1 + b))
            ).theta_raw
            worst = max(worst, abs(moved - base))
        verdict(2, "affine invariance", worst <= 1e-12, f"max drift {worst:.2e}")

    def test_03_mse_shrinks_at_the_parametric_rate(self):
        start = time.perf_counter()
        sizes = (250, 500, 1000, 2000)
        mses = []
        for n in sizes:
            spec = table_scenario(
                "gaussian", n_unlabeled=n, n_class=(n // 2, n - n // 2), theta=0.3
            )
            report = run_mse_study(spec, thetas=[0.3], methods=["ratio"],
                                   replicates=200, seed=31)
            mses.append(report.value("mse", theta=0.3, method="ratio"))
        slope = float(np.polyfit(np.log(sizes), np.log(mses), 1)[0])
        elapsed = time.perf_counter() - start
        verdict(3, "1/n error rate", -1.4 <= slope <= -0.6 and elapsed < 60.0,
                f"log-log slope {slope:.3f}, {elapsed:.1f}s")

    def test_04_interval_coverage(self):
        start = time.perf_counter()
        spec = table_scenario("gaussian", n_unlabeled=1000, n_class=(500, 500))
        thetas = [0.1, 0.2, 0.3, 0.4, 0.5]
        report = run_coverage_study(spec, thetas=thetas, level=0.95,
                                    replicates=500, seed=41)
        coverages = {t: report.value("coverage", theta=t) for t in thetas}
        elapsed = time.perf_counter() - start
        ok = all(c >= 0.93 for c in coverages.values()) and elapsed < 120.0
        verdict(4, "interval coverage",
                ok, f"min coverage {min(coverages.values()):.3f}, {elapsed:.1f}s")

    def test_05_simplex_projection_matches_a_grid_search(self):
        """Brute force over the 1e-3-spaced simplex; closed form must agree
        to within the grid resolution."""
        steps = 1000
        ii, jj = np.meshgrid(np.arange(steps + 1), np.arange(steps + 1), indexing="ij")
        keep = (ii + jj) <= steps
        grid = np.stack(
            [ii[keep], jj[keep], steps - ii[keep] - jj[keep]], axis=1
        ) / float(steps)
        norms = np.einsum("ij,ij->i", grid, grid)
        rng = rng_from(2005)
        worst = 0.0
        for _ in range(500):
            vector = rng.normal(0.0, 2.0, 3)
            closed = project_simplex(vector)
            best = grid[np.argmin(norms - 2.0 * (grid @ vector))]
            worst = max(worst, float(np.max(np.abs(closed - best))))
        verdict(5, "simplex projection vs grid", worst < 2e-3, f"max gap {worst:.2e}")

    def test_06_separation_weights_solve_the_eigenproblem(self):
        rng = rng_from(2006)
        max_residual, rayleigh_wins = 0.0, True
        for _ in range(100):
            dim = int(rng.integers(3, 9))
            mean0 = rng.normal(0.0, 1.0, dim)
            mean1 = mean0 + rng.normal(0.0, 1.0, dim) + 0.5
            diff = mean1 - mean0
            m_sep = np.outer(diff, diff)
            root = rng.normal(0.0, 1.0, (dim, dim))
            n_spread = root @ root.T
            gamma = float(rng.uniform(1e-6, 1.0))
            w = solve_weights(n_spread, mean0, mean1, gamma)
            reg = n_spread + gamma * np.eye(dim)
            lam = float(w @ m_sep @ w) / float(w @ reg @ w)
            max_residual = max(
                max_residual, float(np.linalg.norm(m_sep @ w - lam * (reg @ w)))
            )
            dirs = rng.normal(0.0, 1.0, (1000, dim))
            quotients = np.einsum("ij,jk,ik->i", dirs, m_sep, dirs) / np.einsum(
                "ij,jk,ik->i", dirs, reg, dirs
            )
            if quotients.max() > lam + 1e-12:
                rayleigh_wins = False
        verdict(6, "kernel weight eigensolve",
                max_residual < 1e-8 and rayleigh_wins,
                f"max residual {max_residual:.2e}, beats 1000 directions: {rayleigh_wins}")

    def test_07_shift_test_size_and_power(self):
        """Null rejection near the 5% level; full power at the far shift.
        gamma = -2 is the default sweep's most-shifted point (the +2 side is
        excluded there: the shifted class-0 law collides with class 1 and
        the mixture hypothesis degenerately holds again)."""
        start = time.perf_counter()
        spec = table_scenario("gaussian")
        report = run_power_study(spec, gammas=[-2.0, 0.0], alpha=0.05,
                                 replicates=500, test_replicates=200, seed=71,
                                 grid_size=201)
        size = report.value("rejection_rate", gamma=0.0)
        power = report.value("rejection_rate", gamma=-2.0)
        elapsed = time.perf_counter() - start
        ok = 0.01 <= size <= 0.10 and power >= 0.8 and elapsed < 600.0
        verdict(7, "shift test size and power", ok,
                f"size {size:.3f}, power {power:.3f}, {elapsed:.0f}s")

    def test_08_pooling_target_labels_halves_the_mse(self):
        """With m = 77 target labels the labels-only arm matches the ratio
        arm's MSE, so the pooled estimate should run at roughly half."""
        spec = symmetric_gaussian(0.3, 300, (150, 150), mu=1.0)
        report = run_combined_study(spec, label_counts=[77], replicates=300, seed=10)
        mse_ratio = report.value("mse_ratio", target_labels=77)
        mse_combined = report.value("mse_combined", target_labels=77)
        share = mse_combined / mse_ratio
        verdict(8, "combined estimator gain", 0.4 <= share <= 0.7,
                f"MSE ratio {share:.3f}")

    def test_09_simplex_projection_helps_the_multiclass_ladder(self):
        spec = ScenarioSpec(
            kind="multiclass_gaussian", n_unlabeled=300, n_class=(20, 30, 50)
        )
        report = run_multiclass_study(spec, sizes=[250, 500, 1000, 2000],
                                      replicates=100, seed=91)
        never_hurts = all(row[4] <= row[2] + 1e-12 for row in report.rows)
        monotone = all(
            report.rows[i + 1][2] <= report.rows[i][2] + report.rows[i][3] + report.rows[i + 1][3]
            for i in range(len(report.rows) - 1)
        )
        verdict(9, "multiclass ladder", never_hurts and monotone,
                f"projection never hurts: {never_hurts}, decreasing: {monotone}")

    def test_10_regression_curves(self):
        grid = np.linspace(0.0, 1.0, 101)
        hard = ScenarioSpec(kind="regression_sine", n_unlabeled=1000,
                            n_class=(500, 500), mu=0.5)
        report = run_regression_study(hard, grid=grid, replicates=50, seed=101)
        wins = sum(1 for row in report.raw_rows if row[2] < row[3])

        easy = ScenarioSpec(kind="regression_sine", n_unlabeled=1000,
                            n_class=(500, 500), mu=2.0)
        easy_report = run_regression_study(easy, grid=grid, replicates=50, seed=101)
        sup_gap = easy_report.rows[0][6]
        mise = easy_report.rows[0][1]
        ok = wins >= 45 and sup_gap < 0.1 and mise < 0.02
        verdict(10, "prevalence regression", ok,
                f"corrected wins {wins}/50, max sup gap {sup_gap:.3f}, "
                f"easy-case MISE {mise:.4f}")

    def test_11_cli_is_byte_deterministic(self, tmp_path, capsys):
        rng = rng_from(2011)
        lines = ["x1,x2,y,s"]
        for y in (0, 1):
            for _ in range(12):
                x = rng.normal(2.5 * y, 1.0, 2)
                lines.append(f"{x[0]},{x[1]},{y},1")
        for _ in range(40):
            y = int(rng.random() < 0.6)
            x = rng.normal(2.5 * y, 1.0, 2)
            lines.append(f"{x[0]},{x[1]},,0")
        data = tmp_path / "accept.csv"
        data.write_text("\n".join(lines) + "\n")

        schema = ["--set-col", "s", "--label-col", "y"]
        selection = str(tmp_path / "sel.json")
        study = str(tmp_path / "study.csv")
        commands = [
            ["estimate", str(data)] + schema + ["--ci", "0.95"],
            ["test-shift", str(data)] + schema + ["--B", "50", "--grid-size", "201",
                                                  "--seed", "9"],
            ["select-g", str(data)] + schema + ["--seed", "4", "--out", selection],
            ["estimate", str(data)] + schema + ["--weights", selection],
            ["simulate", "--study", "mse", "--theta", "0.3", "--replicates", "3",
             "--n-unlabeled", "40", "--n-class", "20", "--n-class", "20",
             "--seed", "5", "--out", study],
            ["simulate", "--study", "power", "--gamma", "0", "--replicates", "2",
             "--test-replicates", "11", "--grid-size", "51", "--n-unlabeled", "40",
             "--n-class", "20", "--n-class", "20", "--seed", "6"],
        ]
        stable = True
        for argv in commands:
            outputs, files = [], []
            for _ in range(2):
                code = main(argv)
                captured = capsys.readouterr()
                assert code == 0, (argv, captured.err)
                outputs.append(captured.out)
                files.append([
                    path.read_bytes() for path in (tmp_path / "sel.json",
                                                   tmp_path / "study.csv")
                    if path.exists()
                ])
            if outputs[0] != outputs[1] or files[0] != files[1]:
                stable = False
        verdict(11, "deterministic CLI output", stable)


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-s", "-v"]))
