"""Release acceptance gate: eleven numbered criteria, one test each.

Every test prints one line of the form

    [criterion NN] <name>: PASS|FAIL

before asserting, so a verbose pytest run reports a verdict per
criterion. The simulation-backed criteria (4-8) run the full
generate -> infer -> cluster pipeline at a reduced scale (hundreds of
variables rather than thousands); their thresholds were chosen for
those scales and are asserted as stated, even where a criterion is
currently not met, so regressions and improvements both stay visible.

Oracles are self-contained here: adaptive quadrature of the defining
slab convolution, brute-force posterior-CDF grid inversion, exact
rational hypergeometric tail enumeration, dense eigendecomposition,
and byte comparison of rerun outputs.
"""

from __future__ import annotations

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import cumulative_simpson, quad

from assocnet import community
from assocnet.assoc import cooccurrence_pvalues
from assocnet.cli import main
from assocnet.community import _leading_eigenpairs
from assocnet.ebayes import fit_row, log_laplace_normal_density, posterior_median
from assocnet.graphs import Partition
from assocnet.metrics import nmi
from assocnet.simgen import SimConfig, expand_grid, run_single, run_study

SQRT_2PI = math.sqrt(2.0 * math.pi)

DESK = dict(m=600, k=4, community_size=150, theta_out=1.0, nu=200)


def verdict(num: int, name: str, ok: bool, detail: str) -> str:
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line, flush=True)
    return line


def norm_pdf(u):
    return np.exp(-0.5 * np.asarray(u) ** 2) / SQRT_2PI


def quad_log_slab_density(z: float, a: float) -> float:
    """log slab density by adaptive quadrature of the defining convolution."""
    z = abs(float(z))

    def integrand(u):
        return math.exp(a * z - a * abs(z + u)) * float(norm_pdf(u))

    total = 0.0
    for lo, hi in ((-np.inf, -z), (-z, 0.0), (0.0, np.inf)):
        val, _ = quad(integrand, lo, hi, epsabs=0.0, epsrel=1e-13, limit=400)
        total += val
    return math.log(a / 2.0) - a * z + math.log(total)


def grid_posterior_median(z: float, w: float, a: float) -> float:
    """Posterior median by cumulative-Simpson CDF inversion on a fine grid."""
    z = float(z)
    half_width = abs(z) + 12.0
    n = 2 * int(half_width / 0.00025) + 1
    grid = np.linspace(-half_width, half_width, n)
    cont = w * (a / 2.0) * np.exp(-a * np.abs(grid)) * norm_pdf(z - grid)
    cdf = cumulative_simpson(cont, x=grid, initial=0.0)
    atom = (1.0 - w) * float(norm_pdf(z))
    total = atom + cdf[-1]
    at_zero = cdf[n // 2]
    if at_zero <= total / 2.0 <= at_zero + atom:
        return 0.0
    if at_zero + atom < total / 2.0:
        level = total / 2.0 - atom
    else:
        level = total / 2.0
    return float(np.interp(level, cdf, grid))


def sample_mixture_row(n: int, w: float, a: float, rng) -> np.ndarray:
    signal = rng.random(n) < w
    mu = np.where(signal, rng.laplace(0.0, 1.0 / a, n), 0.0)
    return mu + rng.standard_normal(n)


@pytest.fixture(scope="module")
def strong_signal_runs():
    """Ten pipeline repetitions in the easy regime, shared by 04 and 08."""
    start = time.perf_counter()
    records = []
    for rep in range(10):
        config = SimConfig(**DESK, theta_in=50.0, r_gen=0.8, seed=rep)
        records.append(run_single(config)[0])
    return records, time.perf_counter() - start


class TestCriteria:
    def test_criterion_01_slab_density_matches_quadrature(self):
        start = time.perf_counter()
        grid = np.arange(-40.0, 40.0 + 1e-9, 1.0)
        worst = 0.0
        for a in (0.1, 0.5, 2.0):
            for z in grid:
                mine = math.exp(log_laplace_normal_density(z, a))
                reference = math.exp(quad_log_slab_density(z, a))
                worst = max(worst, abs(mine - reference) / reference)
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-8 and elapsed < 10.0
        line = verdict(
            1,
            "slab density matches quadrature",
            ok,
            f"max rel err {worst:.2e}, {elapsed:.1f}s",
        )
        assert ok, line

    def test_criterion_02_posterior_median_matches_grid_inversion(self):
        start = time.perf_counter()
        rng = np.random.default_rng(20240817)
        worst = 0.0
        for _ in range(500):
            z = float(rng.uniform(-8.0, 8.0))
            w = float(rng.uniform(0.02, 0.98))
            a = float(rng.uniform(0.1, 3.0))
            mine = posterior_median(z, w, a).median
            reference = grid_posterior_median(z, w, a)
            worst = max(worst, abs(mine - reference))
        elapsed = time.perf_counter() - start
        ok = worst <= 1e-6 and elapsed < 30.0
        line = verdict(
            2,
            "posterior median matches grid inversion",
            ok,
            f"max abs err {worst:.2e} over 500 triples, {elapsed:.1f}s",
        )
        assert ok, line

    def test_criterion_03_weight_recovery_from_mixture_rows(self):
        start = time.perf_counter()
        medians = {}
        for w_true in (0.02, 0.1, 0.3):
            estimates = []
            for seed in range(20):
                rng = np.random.default_rng(1000 + seed)
                row = sample_mixture_row(2000, w_true, 0.5, rng)
                w_hat, _, _ = fit_row(row)
                estimates.append(w_hat)
            medians[w_true] = float(np.median(estimates))
        elapsed = time.perf_counter() - start
        ok = (
            abs(medians[0.02] - 0.02) <= 0.05
            and abs(medians[0.1] - 0.1) <= 0.05
            and abs(medians[0.3] - 0.3) <= 0.08
            and elapsed < 60.0
        )
        detail = ", ".join(
            f"w={w}: median {m:.4f}" for w, m in medians.items()
        )
        line = verdict(
            3, "mixture weight recovery", ok, f"{detail}, {elapsed:.1f}s"
        )
        assert ok, line

    def test_criterion_04_high_signal_recovery(self, strong_signal_runs):
        records, elapsed = strong_signal_runs
        median_nmi = float(np.median([r["nmi"] for r in records]))
        ok = median_nmi >= 0.9 and elapsed < 600.0
        line = verdict(
            4,
            "high-signal community recovery",
            ok,
            f"median NMI {median_nmi:.4f} over 10 reps, {elapsed:.0f}s",
        )
        assert ok, line

    def test_criterion_05_weak_signal_collapse(self):
        records = []
        for rep in range(10):
            config = SimConfig(**DESK, theta_in=50.0, r_gen=0.1, seed=rep)
            records.append(run_single(config)[0])
        median_edges = float(np.median([r["detected_edges"] for r in records]))
        median_nmi = float(np.median([r["nmi"] for r in records]))
        bound = 0.001 * DESK["m"] * (DESK["m"] - 1) / 2.0
        ok = median_edges < bound and median_nmi <= 0.1
        line = verdict(
            5,
            "weak-signal collapse to empty network",
            ok,
            f"median edges {median_edges:.0f} (bound {bound:.1f}), "
            f"median NMI {median_nmi:.4f} (bound 0.1)",
        )
        assert ok, line

    def test_criterion_06_collapse_point_decreases_with_dof(self):
        r_grid = [0.40, 0.35, 0.30, 0.25, 0.20, 0.15, 0.10]
        mapping = dict(
            m=300,
            k=4,
            community_size=75,
            theta_in=30.0,
            theta_out=1.0,
            r_gen=r_grid,
            nu=[50, 100, 200],
            seed=0,
        )
        configs = expand_grid(mapping)
        _, summary = run_study(configs, repetitions=5, seed=0)
        by_point = {row["point"]: row["nmi_median"] for row in summary}
        collapse = {}
        for nu in (50, 100, 200):
            curve = sorted(
                (
                    (configs[p].r_gen, by_point[p])
                    for p in range(len(configs))
                    if configs[p].nu == nu
                ),
                key=lambda item: -item[0],
            )
            collapse[nu] = next((r for r, v in curve if v < 0.3), None)
        ok = (
            None not in collapse.values()
            and collapse[50] > collapse[100] > collapse[200]
        )
        line = verdict(
            6,
            "detection collapse point decreases with dof",
            ok,
            f"collapse r: nu=50 -> {collapse[50]}, nu=100 -> {collapse[100]}, "
            f"nu=200 -> {collapse[200]}",
        )
        assert ok, line

    def test_criterion_07_pipeline_beats_direct_spectral_baseline(self):
        mapping = dict(
            DESK, theta_in=30.0, r_gen=[0.5, 0.6, 0.7], seed=0
        )
        configs = expand_grid(mapping)
        _, summary = run_study(configs, repetitions=10, seed=0, baseline=True)
        medians = {
            (row["point"], row["method"]): row["nmi_median"] for row in summary
        }
        wins = sum(
            medians[(p, "threshold-spectral")] >= medians[(p, "spectral-direct")]
            for p in range(len(configs))
        )
        ok = wins >= 2
        detail = "; ".join(
            f"r={configs[p].r_gen}: {medians[(p, 'threshold-spectral')]:.3f} vs "
            f"{medians[(p, 'spectral-direct')]:.3f}"
            for p in range(len(configs))
        )
        line = verdict(
            7,
            "thresholded pipeline beats direct spectral",
            ok,
            f"{wins}/3 points ({detail})",
        )
        assert ok, line

    def test_criterion_08_edge_detection_rates(self, strong_signal_runs):
        records, _ = strong_signal_runs
        median_tpr = float(np.median([r["tpr"] for r in records]))
        median_fpr = float(np.median([r["fpr"] for r in records]))
        ok = median_tpr >= 0.8 and median_fpr <= 0.005
        line = verdict(
            8,
            "edge detection rates in the easy regime",
            ok,
            f"median TPR {median_tpr:.4f} (need >= 0.8), "
            f"median FPR {median_fpr:.6f} (need <= 0.005)",
        )
        assert ok, line

    def test_criterion_09_exact_overlap_tail_enumeration(self):
        worst = 0.0
        tables = 0
        for n in range(1, 13):
            for ki in range(1, n + 1):
                for kj in range(1, n + 1):
                    for o in range(max(0, ki + kj - n), min(ki, kj) + 1):
                        incidence = np.zeros((n, 2), dtype=np.int64)
                        incidence[:ki, 0] = 1
                        incidence[ki - o : ki - o + kj, 1] = 1
                        mine = cooccurrence_pvalues(incidence).values[0, 1]
                        tail = sum(
                            Fraction(math.comb(ki, x) * math.comb(n - ki, kj - x))
                            for x in range(o, min(ki, kj) + 1)
                        ) / Fraction(math.comb(n, kj))
                        worst = max(worst, abs(mine - float(tail)))
                        tables += 1
        ok = worst <= 1e-12
        line = verdict(
            9,
            "exact overlap tail enumeration",
            ok,
            f"max abs err {worst:.2e} over {tables} tables",
        )
        assert ok, line

    def test_criterion_10_spectral_and_nmi_oracles(self, monkeypatch):
        monkeypatch.setattr(community, "DENSE_CUTOFF", 0)  # ARPACK at every m
        rng = np.random.default_rng(11)
        worst = 0.0
        for _ in range(50):
            m = int(rng.integers(20, 101))
            p = float(rng.uniform(0.05, 0.4))
            dense = np.triu((rng.random((m, m)) < p).astype(np.float64), 1)
            dense = dense + dense.T
            degrees = dense.sum(axis=1)
            reg = degrees + max(float(degrees.mean()), 1.0)
            scale = 1.0 / np.sqrt(reg)
            lap = scale[:, None] * dense * scale[None, :]
            k = int(rng.integers(2, 7))
            vals_sparse, _ = _leading_eigenpairs(lap, k)
            vals_dense = np.linalg.eigh(lap)[0]
            vals_dense = vals_dense[np.argsort(-np.abs(vals_dense), kind="stable")[:k]]
            worst = max(worst, float(np.max(np.abs(vals_sparse - vals_dense))))
        spectra_ok = worst <= 1e-6

        nmi_ok = True
        for _ in range(1000):
            m = int(rng.integers(2, 31))
            k_max = int(rng.integers(1, 6))
            labels_a = rng.integers(0, k_max + 1, m)
            labels_b = rng.integers(0, k_max + 1, m)
            part_a = Partition(labels_a, k_max)
            part_b = Partition(labels_b, k_max)
            if nmi(part_a, part_a) != pytest.approx(1.0):
                nmi_ok = False
                break
            if nmi(part_a, part_b) != pytest.approx(nmi(part_b, part_a), abs=1e-12):
                nmi_ok = False
                break
            relabel = rng.permutation(k_max + 1)
            if nmi(part_a, Partition(relabel[labels_b], k_max)) != pytest.approx(
                nmi(part_a, part_b), abs=1e-12
            ):
                nmi_ok = False
                break
        ok = spectra_ok and nmi_ok
        line = verdict(
            10,
            "spectral and partition-similarity oracles",
            ok,
            f"max eigenvalue gap {worst:.2e} over 50 graphs, "
            f"1000 similarity fuzz cases {'clean' if nmi_ok else 'FAILED'}",
        )
        assert ok, line

    def test_criterion_11_seeded_reruns_are_byte_identical(self, tmp_path):
        sim_payload = dict(
            m=40,
            k=2,
            community_size=10,
            theta_in=30.0,
            theta_out=1.0,
            r_gen=0.8,
            nu=100,
            seed=3,
        )
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(sim_payload), encoding="utf-8")
        grid_path = tmp_path / "grid.json"
        grid_payload = dict(sim_payload)
        del grid_payload["seed"]
        grid_path.write_text(json.dumps(grid_payload), encoding="utf-8")

        # stage shared inputs once, then repeat every command verbatim
        # except for the output directory
        stage = tmp_path / "stage"
        assert (
            main(["simulate", "--config", str(config_path),
                  "--output-dir", str(stage)])
            == 0
        )
        candidate = stage / "candidate"
        assert (
            main(["communities", str(stage / "truth_edges.tsv"), "-K", "2",
                  "--seed", "7", "--output-dir", str(candidate)])
            == 0
        )
        mismatches = []
        for side in ("a", "b"):
            base = tmp_path / side
            assert (
                main(
                    ["simulate", "--config", str(config_path),
                     "--output-dir", str(base / "sim")]
                )
                == 0
            )
            assert (
                main(
                    ["infer", str(stage / "correlations.csv"), "--kind",
                     "correlation", "--nu", "100", "--threads", "2",
                     "--output-dir", str(base / "net")]
                )
                == 0
            )
            assert (
                main(
                    ["communities", str(stage / "truth_edges.tsv"), "-K", "2",
                     "--seed", "7", "--output-dir", str(base / "comm")]
                )
                == 0
            )
            assert (
                main(
                    ["evaluate", str(stage / "planted_partition.tsv"),
                     str(candidate / "partition.tsv"),
                     "--output-dir", str(base / "eval")]
                )
                == 0
            )
            assert (
                main(
                    ["study", "--grid", str(grid_path), "--repetitions", "2",
                     "--seed", "5", "--output-dir", str(base / "study")]
                )
                == 0
            )
        for sub in ("sim", "net", "comm", "eval", "study"):
            dir_a, dir_b = tmp_path / "a" / sub, tmp_path / "b" / sub
            names = sorted(
                p.name for p in dir_a.iterdir() if p.name != "manifest.json"
            )
            for name in names:
                if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
                    mismatches.append(f"{sub}/{name}")
        ok = not mismatches
        line = verdict(
            11,
            "seeded pipeline reruns are byte-identical",
            ok,
            "all outputs matched" if ok else "mismatch: " + ", ".join(mismatches),
        )
        assert ok, line
