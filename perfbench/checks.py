"""Output checks of the benchmark, built only on public oracles.

They run after each op, outside its timed region. A check returns a list
of problems; any problem fails the op. Row independence is the exception:
the estimated-a fit sweeps a whole chunk of rows until its slowest row
converges, so a row's result depends on the rows batched with it. That
known defect is counted (rows that differ from fit_row) and reported as a
measurement rather than as failed ops.
"""

from __future__ import annotations

import numpy as np

from assocnet import ebayes

ROWS_SAMPLED = 12
NEAR_PER_ROW = 4
RANDOM_PAIRS = 100
STEP = 0.01  # local-optimality perturbation, as a share of w and of a


def off_diagonal_row(z: np.ndarray, i: int) -> np.ndarray:
    return np.delete(z[i], i)


def sample_rows(m: int, rng: np.random.Generator) -> np.ndarray:
    return np.sort(rng.choice(m, size=min(ROWS_SAMPLED, m), replace=False))


def sample_pairs(z: np.ndarray, fit, rows: np.ndarray, rng: np.random.Generator):
    """Pairs (i, j), i != j: for each sampled row the entries whose |z| lies
    closest to that row's detection threshold, plus uniformly random pairs."""
    m = z.shape[0]
    pairs = set()
    for i in rows:
        t_i = ebayes.detection_threshold(float(fit.w[i]), float(fit.a[i]))
        gap = np.abs(np.abs(z[i]) - t_i)
        gap[i] = np.inf
        for j in np.argsort(gap, kind="stable")[:NEAR_PER_ROW]:
            pairs.add((int(min(i, j)), int(max(i, j))))
    while len(pairs) < len(rows) * NEAR_PER_ROW + RANDOM_PAIRS:
        i, j = rng.choice(m, size=2, replace=False)
        pairs.add((int(min(i, j)), int(max(i, j))))
    return sorted(pairs)


def and_rule(z, fit, adjacency, pairs) -> list[str]:
    """Edge (i, j) is present iff both rows' posterior medians at z_ij are nonzero."""
    present = set(map(tuple, adjacency.edges.tolist()))
    problems = []
    for i, j in pairs:
        keep_i = ebayes.posterior_median(z[i, j], fit.w[i], fit.a[i]).nonzero
        keep_j = ebayes.posterior_median(z[i, j], fit.w[j], fit.a[j]).nonzero
        if ((i, j) in present) != (keep_i and keep_j):
            problems.append(f"AND rule broken at pair ({i}, {j})")
    return problems


def local_optimality(z, fit, rows, estimate_a: bool) -> list[str]:
    """marginal_loglik at the fitted (w, a) is no lower than at nearby in-bound points."""
    problems = []
    n = z.shape[0] - 1
    for i in rows:
        row = off_diagonal_row(z, i)
        w, a = float(fit.w[i]), float(fit.a[i])
        best = ebayes.marginal_loglik(row, w, a)
        moves = [(w * (1 + s), a) for s in (-STEP, STEP)]
        if estimate_a:
            moves += [(w, a * (1 + s)) for s in (-STEP, STEP)]
        for w2, a2 in moves:
            in_bounds = ebayes.A_MIN <= a2 <= ebayes.A_MAX and (
                ebayes.weight_lower_bound(n, a2) <= w2 <= 1.0
            )
            if in_bounds and ebayes.marginal_loglik(row, w2, a2) > best:
                problems.append(f"row {i}: (w, a) = ({w2!r}, {a2!r}) beats the fit")
    return problems


def row_independence(z, fit, rows, estimate_a: bool) -> tuple[int, float]:
    """Count sampled rows where fit_row(row) differs from the batch fit.

    Returns (rows that differ, largest |difference| in w or a).
    """
    differ, largest = 0, 0.0
    for i in rows:
        w, a, ll = ebayes.fit_row(off_diagonal_row(z, i), estimate_a=estimate_a)
        if (w, a, ll) != (fit.w[i], fit.a[i], fit.loglik[i]):
            differ += 1
            largest = max(largest, abs(w - fit.w[i]), abs(a - fit.a[i]))
    return differ, largest


def fit_boundaries(z, fit) -> dict:
    """Rows whose fit sits at the weight floor, at w = 1, or at a bound of a."""
    floor = ebayes.weight_lower_bound(z.shape[0] - 1, fit.a)
    return {
        "rows_w_at_floor": int(np.sum(fit.w <= floor * (1 + 1e-12))),
        "rows_w_at_one": int(np.sum(fit.w == 1.0)),
        "rows_a_at_bound": int(np.sum((fit.a <= ebayes.A_MIN) | (fit.a >= ebayes.A_MAX))),
    }


def check_inference(z, fit, adjacency, estimate_a: bool, rng) -> tuple[list[str], dict]:
    """All inference checks on one (scores, fit, adjacency); returns (problems, counts)."""
    m = z.shape[0]
    problems = []
    if fit.w.shape != (m,) or adjacency.m != m:
        return [f"fit or adjacency does not cover the {m} rows"], {}
    rows = sample_rows(m, rng)
    pairs = sample_pairs(z, fit, rows, rng)
    problems += and_rule(z, fit, adjacency, pairs)
    problems += local_optimality(z, fit, rows, estimate_a)
    differ, largest = row_independence(z, fit, rows, estimate_a)
    counts = {
        "rows_batch_dependent": differ,
        "rows_independence_checked": len(rows),
        "batch_dependence_max": largest,
        "pairs_checked": len(pairs),
        "edges_kept": adjacency.edge_count,
        **fit_boundaries(z, fit),
    }
    return problems, counts
