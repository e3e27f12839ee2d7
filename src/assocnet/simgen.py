"""Generative benchmark: logistic-linear networks plus noisy correlations.

Networks are drawn from a logistic-linear model: each node gets a
propensity alpha_i (log of a bounded-Pareto draw plus an offset), each
unordered pair an edge with probability sigmoid(alpha_i + alpha_j +
theta_ij), where theta_ij depends on whether the pair shares a planted
community. Pairwise sample correlations are then drawn from 2x2 Wishart
matrices whose population correlation is r_gen on edges and 0 off
edges.

The default Pareto shape and offset are calibrated so that the expected
within-community densities at theta_in in {50, 30, 20, 10} (with
theta_out = 1) are approximately {0.81, 0.34, 0.15, 0.039} and the
between-community density approximately 0.0013.

Every operation draws from seed-derived substreams keyed by purpose and
row, so results are independent of iteration order and identical for a
given seed. Row i of a purpose draws from
default_rng(SeedSequence(entropy=seed, spawn_key=(purpose, i))); the
per-row generators are seeded in one vectorized pass (_substreams) that
reproduces that state exactly. Chi-square draws are taken as
2 * standard_gamma(df / 2), which is how numpy draws them, so every
simulated value equals a chisquare-based draw bit for bit.

Both pair draws, the network's uniforms and the correlations' Wishart
variates, walk the packed upper triangle in blocks of whole rows
(_row_blocks): each row draws into its part of a block buffer, and the
block is worked through at once. Every uniform is drawn, but expit is
evaluated only where the uniform could fall below it. Since expit(eta) <
e^eta = e^alpha_i * e^(alpha_j + theta), a pair off the planted
communities whose uniform exceeds that product, inflated to cover
rounding, cannot be an edge; all other pairs get the exact per-pair
test, so every network is the one that testing every pair gives.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import numbers
import operator
from dataclasses import dataclass

import numpy as np
import scipy

from .assoc import SymmetricMatrix, fisher_z, mapped_zeros, mirror_upper_in_place
from .community import SpectralConfig, detect_communities, spectral_on_continuous
from .ebayes import infer_adjacency
from .errors import InvalidInputError, ParameterError
from .graphs import Partition, SparseAdjacency
from .metrics import edge_confusion, edge_density, nmi

DEFAULT_PARETO_LOW = 1.0
DEFAULT_PARETO_HIGH = 3.3e15
DEFAULT_PARETO_EXPONENT = 0.0022
DEFAULT_ALPHA_OFFSET = -35.73

_STREAM_ALPHA = 0
_STREAM_PLANT = 1
_STREAM_NETWORK = 2
_STREAM_WISHART = 3
_STREAM_DETECT = 4

_INTEGER_FIELDS = ("m", "k", "community_size", "nu", "seed")

# numpy's SeedSequence hash constants (pool of four 32-bit words) and the
# PCG64 state multiplier; numpy keeps both stream-stable.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1
_DRAW_BLOCK = 1 << 17  # most pairs per _row_blocks block (1 MiB a float64 buffer)
_EXP_FLOOR = -700.0  # e^-700 is a normal float64


@dataclass(frozen=True)
class SimConfig:
    """Parameters of one generative configuration.

    The fields typed int must be integers and the rest finite numbers;
    a bool is neither.
    """

    m: int
    k: int
    community_size: int
    theta_in: float
    theta_out: float
    r_gen: float
    nu: int
    pareto_low: float = DEFAULT_PARETO_LOW
    pareto_high: float = DEFAULT_PARETO_HIGH
    pareto_exponent: float = DEFAULT_PARETO_EXPONENT
    alpha_offset: float = DEFAULT_ALPHA_OFFSET
    seed: int = 0

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name in _INTEGER_FIELDS:
                ok, kind = isinstance(value, numbers.Integral), "an integer"
            else:
                ok = isinstance(value, numbers.Real) and math.isfinite(value)
                kind = "a finite number"
            if isinstance(value, bool) or not ok:
                raise ParameterError(f"{f.name} must be {kind}, not {value!r}")
        if self.m < 2:
            raise ParameterError("m must be at least 2")
        if self.k < 1 or self.community_size < 1:
            raise ParameterError("k and community_size must be positive")
        if self.k * self.community_size > self.m:
            raise ParameterError("k * community_size must not exceed m")
        if not 0.0 < self.r_gen <= 1.0:
            raise ParameterError("r_gen must lie in (0, 1]")
        if self.nu < 4:
            raise ParameterError("nu must be at least 4")
        if not 0.0 < self.pareto_low < self.pareto_high:
            raise ParameterError("need 0 < pareto_low < pareto_high")
        if self.pareto_exponent <= 0.0:
            raise ParameterError("pareto_exponent must be positive")
        if self.seed < 0:
            raise ParameterError("seed must be nonnegative")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, mapping: dict) -> "SimConfig":
        if not isinstance(mapping, dict):
            raise ParameterError("config must be a JSON object")
        fields = dataclasses.fields(cls)
        unknown = set(mapping) - {f.name for f in fields}
        if unknown:
            raise ParameterError(f"unknown config fields: {sorted(unknown)}")
        missing = [
            f.name
            for f in fields
            if f.default is dataclasses.MISSING and f.name not in mapping
        ]
        if missing:
            raise ParameterError(f"missing config fields: {missing}")
        return cls(**mapping)


@dataclass(frozen=True)
class GroundTruth:
    """A generated network with its planted communities and propensities."""

    adjacency: SparseAdjacency
    partition: Partition
    alpha: np.ndarray

    def __post_init__(self) -> None:
        alpha = np.asarray(self.alpha, dtype=np.float64)
        object.__setattr__(self, "alpha", alpha)
        if not (self.adjacency.m == self.partition.m == alpha.size):
            raise InvalidInputError("ground-truth parts must agree on m")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def _uint32_words(value: int) -> list[int]:
    """value as little-endian 32-bit words, as SeedSequence splits it."""
    value = operator.index(value)
    if value < 0:
        raise ValueError("expected non-negative integer")
    words = [value & _MASK32]
    while value >> 32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _substreams(seed: int, stream: int, rows):
    """Yield for each i in rows a Generator in the state of
    default_rng(SeedSequence(entropy=seed, spawn_key=(stream, i))).

    The SeedSequence hash and the PCG64 seeding run once, vectorized over
    the rows (each below 2**32), and every yield re-seeds the same
    Generator, so a row's draws must be done before the next row is taken.
    """
    u32 = np.uint32
    rows = np.asarray(rows, dtype=u32)
    seed_words = _uint32_words(seed)
    # The entropy pads the seed to the pool size when a spawn key follows.
    prefix = seed_words + [0] * (4 - len(seed_words)) + _uint32_words(stream)
    words = [np.full(rows.shape, w, dtype=u32) for w in prefix] + [rows]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value = value ^ u32(const)
        const = const * _MULT_A & _MASK32
        value = value * u32(const)
        return value ^ (value >> u32(16))

    def mix(x, y):
        value = u32(_MIX_L) * x - u32(_MIX_R) * y
        return value ^ (value >> u32(16))

    pool = [hashmix(w) for w in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    # generate_state(4, uint64): eight words, paired little-endian.
    const, state = _INIT_B, []
    for k in range(8):
        value = pool[k % 4] ^ u32(const)
        const = const * _MULT_B & _MASK32
        value = value * u32(const)
        state.append((value ^ (value >> u32(16))).astype(object))
    init_state = state[1] << 96 | state[0] << 64 | state[3] << 32 | state[2]
    init_seq = state[5] << 96 | state[4] << 64 | state[7] << 32 | state[6]
    # PCG64's seeding: inc = 2 * seq + 1, then two steps around adding
    # the initial state.
    inc = (init_seq << 1 | 1) & _MASK128
    pcg_state = ((inc + init_state) * _PCG_MULT + inc) & _MASK128
    bit_generator = np.random.PCG64()
    rng = np.random.Generator(bit_generator)
    for value, increment in zip(pcg_state, inc):
        bit_generator.state = {
            "bit_generator": "PCG64",
            "state": {"state": value, "inc": increment},
            "has_uint32": 0,
            "uinteger": 0,
        }
        yield rng


def derive_seed(seed: int, *key: int) -> int:
    """A stable integer sub-seed for downstream components."""
    return int(
        np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1)[0]
    )


def log_bounded_pareto_ppf(u, low: float, high: float, exponent: float):
    """log of the bounded-Pareto quantile function, stable for tiny exponents."""
    span = np.log(high / low)
    tail = -np.expm1(-exponent * span)
    return np.log(low) - np.log1p(-np.asarray(u) * tail) / exponent


def sample_alpha(config: SimConfig) -> np.ndarray:
    """Node propensities: log of bounded-Pareto draws plus the offset."""
    u = _rng(config.seed, _STREAM_ALPHA).random(config.m)
    return (
        log_bounded_pareto_ppf(
            u, config.pareto_low, config.pareto_high, config.pareto_exponent
        )
        + config.alpha_offset
    )


def plant_communities(config: SimConfig) -> Partition:
    """k disjoint uniformly random groups of community_size; rest background 0."""
    rng = _rng(config.seed, _STREAM_PLANT)
    order = rng.permutation(config.m)
    labels = np.zeros(config.m, dtype=np.int64)
    for g in range(config.k):
        members = order[g * config.community_size : (g + 1) * config.community_size]
        labels[members] = g + 1
    return Partition(labels, config.k)


def generate_network(
    alpha: np.ndarray,
    partition: Partition,
    theta_in: float,
    theta_out: float,
    seed: int,
) -> SparseAdjacency:
    """Draw one network: logit(p_ij) = alpha_i + alpha_j + theta_ij.

    theta_ij is theta_in when i and j share a planted (nonzero) label
    and theta_out otherwise; alpha, theta_in and theta_out must be
    finite. Pair (i, j > i) is an edge when expit(alpha_i + alpha_j +
    theta_ij) exceeds u_ij, the (j - i)-th uniform of row i's substream.

    The rows are drawn in blocks (_row_blocks), and only candidate pairs
    get the exact test: the planted within pairs, and every pair with
    u_ij <= e^alpha_i * e^(alpha_j + theta_out), a product inflated by a
    slack that covers the rounding of both sides. Every other pair fails
    the exact test too, since expit(eta) < e^eta, so each decision, and
    the network, is that of testing every pair.
    """
    alpha = np.asarray(alpha, dtype=np.float64)
    m = alpha.size
    if partition.m != m:
        raise InvalidInputError("alpha and partition must agree on m")
    if not np.isfinite(alpha).all():
        raise ParameterError("alpha must be finite")
    for name, theta in (("theta_in", theta_in), ("theta_out", theta_out)):
        if not math.isfinite(theta):
            raise ParameterError(f"{name} must be finite, not {theta!r}")
    labels = partition.labels
    # eta and the bound's exponent each carry a rounding error of a few
    # ulps of max |alpha| and |theta_out|; a slack of e^(1e-12 (1 + max
    # |alpha| + |theta_out|)) covers both many times over. The floor keeps
    # every factor a normal number, so no product loses precision or
    # turns to 0 * inf; an overflow gives inf, which makes a candidate.
    with np.errstate(over="ignore"):
        slack = np.exp(1e-12 * (1.0 + np.abs(alpha).max(initial=0.0) + abs(theta_out)))
        e_alpha = (np.exp(np.maximum(alpha, _EXP_FLOOR)) * slack).tolist()
        e_out = np.exp(np.maximum(alpha + theta_out, _EXP_FLOOR))
    planted = (labels > 0).tolist()
    capacity, blocks = _row_blocks(m)
    # The block buffers and the growing edge list live in anonymous maps:
    # pages they never write cost no memory, and freeing them leaves no hole.
    scratch = mapped_zeros(18 * capacity, np.uint8)
    u, bound = scratch[: 16 * capacity].view(np.float64).reshape(2, capacity)
    within, candidate = scratch[16 * capacity :].view(bool).reshape(2, capacity)
    edges, count = mapped_zeros(2 * capacity, np.int64).reshape(-1, 2), 0
    streams = _substreams(seed, _STREAM_NETWORK, range(m - 1))
    for start, stop, bounds in blocks:
        n = bounds[-1]
        within[:n] = False
        with np.errstate(over="ignore"):
            for i, rng, row in zip(range(start, stop), streams, _slices(bounds)):
                rng.random(out=u[row])
                np.multiply(e_out[i + 1 :], e_alpha[i], out=bound[row])
                if planted[i]:
                    np.equal(labels[i + 1 :], labels[i], out=within[row])
        hits = np.less_equal(u[:n], bound[:n], out=candidate[:n])
        hits |= within[:n]
        at = np.flatnonzero(hits)
        per_row = np.diff(np.searchsorted(at, bounds))
        cols = np.repeat(np.arange(start + 1, stop + 1) - bounds[:-1], per_row)
        cols += at
        # The exact test, in the operation order of the per-pair
        # expit(alpha_i + alpha_j + theta_ij) > u_ij.
        eta = np.repeat(alpha[start:stop], per_row)
        eta += alpha[cols]
        eta += np.where(within[at], theta_in, theta_out)
        keep = scipy.special.expit(eta, out=eta) > u[at]
        kept = np.count_nonzero(keep)
        if count + kept > len(edges):  # twice the rows needed, in a new map
            grown = mapped_zeros(4 * (count + kept), np.int64).reshape(-1, 2)
            grown[:count] = edges[:count]
            edges = grown
        edges[count : count + kept, 0] = np.repeat(np.arange(start, stop), per_row)[keep]
        edges[count : count + kept, 1] = cols[keep]
        count += kept
    return SparseAdjacency(m, edges[:count])


def generate_correlations(
    adj: SparseAdjacency, r_gen: float, nu: int, seed: int
) -> SymmetricMatrix:
    """Sample correlations from pairwise 2x2 Wishart(S, nu) draws.

    S has unit diagonal and off-diagonal r_gen on edges, 0 off edges.
    Each draw uses the Bartlett construction: with S = L L^T, the sample
    correlation reduces to y / sqrt(y^2 + s^2 c2^2) where y = r c1 +
    s n, s = sqrt(1 - r^2), c1^2 ~ chi2(nu), c2^2 ~ chi2(nu - 1),
    n ~ N(0, 1). The diagonal is set to 0 by convention.

    Row i's pairs (i, j > i) come from row i's substream. Whole rows are
    drawn into block buffers of about min(m^2 / 32, 2^17) pairs, worked
    through in place, written to the upper triangle, and mirrored once.
    """
    if not 0.0 < r_gen <= 1.0:
        raise ParameterError("r_gen must lie in (0, 1]")
    if nu < 4:
        raise ParameterError("nu must be at least 4")
    values = mapped_zeros((adj.m, adj.m))
    _draw_upper_correlations(values, adj, r_gen, nu, seed)
    mirror_upper_in_place(values)
    return SymmetricMatrix(values, "correlation")


def _draw_upper_correlations(values, adj, r_gen, nu, seed) -> None:
    """Fill the strict upper triangle of values for generate_correlations."""
    # Canonical edges are sorted by their first endpoint, so row i's
    # edges are edges[first[i]:first[i + 1]].
    first = np.searchsorted(adj.edges[:, 0], np.arange(adj.m + 1))
    capacity, blocks = _row_blocks(adj.m)
    buffers = [np.empty(capacity) for _ in range(4)]
    streams = _substreams(seed, _STREAM_WISHART, range(adj.m - 1))
    for start, stop, bounds in blocks:
        n = bounds[-1]
        c1, c2, noise, r = (buffer[:n] for buffer in buffers)
        for row, rng in zip(_slices(bounds), streams):
            rng.standard_gamma(nu / 2, out=c1[row])
            rng.standard_gamma((nu - 1) / 2, out=c2[row])
            rng.standard_normal(out=noise[row])
        r[:] = 0.0
        edges = adj.edges[first[start] : first[stop]]
        r[bounds[edges[:, 0] - start] + edges[:, 1] - edges[:, 0] - 1] = r_gen
        # The Bartlett arithmetic in place, in the operation order of
        # y = r c1 + s n and y / sqrt(y y + s s c2 c2).
        for c in (c1, c2):
            c *= 2.0  # chi2(df) = 2 gamma(df / 2)
            np.sqrt(c, out=c)
        y = np.multiply(c1, r, out=c1)
        s = np.multiply(r, r, out=r)
        np.subtract(1.0, s, out=s)
        np.sqrt(s, out=s)
        noise *= s
        y += noise
        s *= s
        s *= c2
        s *= c2
        denominator = np.multiply(y, y, out=noise)
        denominator += s
        np.sqrt(denominator, out=denominator)
        y /= denominator
        for i, row in zip(range(start, stop), _slices(bounds)):
            values[i, i + 1 :] = y[row]


def _row_blocks(m: int):
    """The packed strict upper triangle of an m x m matrix in blocks of whole rows.

    Returns (capacity, blocks). blocks yields (start, stop, bounds) for
    rows start..stop-1 in order: row i's pairs (i, j > i), in order of j,
    take positions bounds[i - start]:bounds[i - start + 1] of a block
    buffer. A block holds at most capacity pairs, about min(m^2 / 32,
    _DRAW_BLOCK) and at least one row.
    """
    offsets = np.concatenate([[0], np.cumsum(np.arange(m - 1, 0, -1))])
    capacity = max(m - 1, min(m * m // 32, _DRAW_BLOCK))

    def blocks():
        start = 0
        while start < m - 1:
            base = offsets[start]
            stop = int(np.searchsorted(offsets, base + capacity, side="right")) - 1
            yield start, stop, offsets[start : stop + 1] - base
            start = stop

    return capacity, blocks()


def _slices(bounds):
    """The slice of each row of a _row_blocks block."""
    bounds = bounds.tolist()
    return map(slice, bounds[:-1], bounds[1:])


def generate_ground_truth(config: SimConfig) -> GroundTruth:
    """Propensities, planted communities, and one network draw."""
    alpha = sample_alpha(config)
    partition = plant_communities(config)
    adjacency = generate_network(
        alpha, partition, config.theta_in, config.theta_out, config.seed
    )
    return GroundTruth(adjacency, partition, alpha)


def run_single(config: SimConfig, estimate_a: bool = False, baseline: bool = False):
    """One generate -> infer -> detect run; returns a list of record dicts.

    The first record is the thresholding pipeline; with baseline=True a
    second record clusters |r| directly with the same settings.
    """
    truth = generate_ground_truth(config)
    corr = generate_correlations(truth.adjacency, config.r_gen, config.nu, config.seed)
    assoc = fisher_z(corr, config.nu)
    adjacency, fit = infer_adjacency(assoc, estimate_a=estimate_a)
    spectral = SpectralConfig(K=config.k, seed=derive_seed(config.seed, _STREAM_DETECT))
    partition = detect_communities(adjacency, spectral)
    confusion = edge_confusion(adjacency, truth.adjacency)
    truth_density = edge_density(truth.adjacency, truth.partition)
    truth_fields = {
        "true_edges": truth.adjacency.edge_count,
        "true_density": truth_density.overall,
        "true_within_density": truth_density.within,
        "true_between_density": truth_density.between,
    }
    record = {
        "method": "threshold-spectral",
        "nmi": nmi(partition, truth.partition),
        "tpr": confusion.tpr,
        "fpr": confusion.fpr,
        "detected_edges": adjacency.edge_count,
        **truth_fields,
        "median_w": float(np.median(fit.w)),
        "median_a": float(np.median(fit.a)),
    }
    records = [record]
    if baseline:
        direct = spectral_on_continuous(corr, spectral)
        records.append(
            {
                "method": "spectral-direct",
                "nmi": nmi(direct, truth.partition),
                "tpr": None,
                "fpr": None,
                "detected_edges": None,
                **truth_fields,
                "median_w": None,
                "median_a": None,
            }
        )
    return records


def expand_grid(mapping: dict) -> list[SimConfig]:
    """Expand a config mapping into grid points.

    Fields holding lists are swept; the Cartesian product is taken in
    the order the swept fields appear. Scalar fields are shared. An empty
    list would leave no grid point and is rejected.
    """
    if not isinstance(mapping, dict):
        raise ParameterError("grid must be a JSON object")
    base = dict(mapping)
    swept = [name for name, value in base.items() if isinstance(value, list)]
    for name in swept:
        if not base[name]:
            raise ParameterError(f"grid field {name} sweeps an empty list")
    return [
        SimConfig.from_dict({**base, **dict(zip(swept, point))})
        for point in itertools.product(*(base[name] for name in swept))
    ]


_SUMMARY_METRICS = ("nmi", "tpr", "fpr", "detected_edges")


def run_study(
    configs: list[SimConfig],
    repetitions: int,
    seed: int = 0,
    estimate_a: bool = False,
    baseline: bool = False,
):
    """Repeat run_single over a grid; returns (records, summary_rows).

    Each (grid point, repetition) gets its own derived seed. A failing
    run contributes an error record for each method it would have run
    instead of aborting the study. The summary holds per-point,
    per-method quartiles of each metric.
    """
    if repetitions < 1:
        raise ParameterError("repetitions must be at least 1")
    if seed < 0:
        raise ParameterError("seed must be nonnegative")
    records = []
    for point, config in enumerate(configs):
        for rep in range(repetitions):
            run_seed = derive_seed(seed, point, rep)
            run_config = dataclasses.replace(config, seed=run_seed)
            meta = {"point": point, "rep": rep, "config": run_config.to_dict()}
            try:
                for rec in run_single(run_config, estimate_a, baseline):
                    records.append({**meta, **rec})
            except Exception as exc:  # fault isolation across runs
                error = f"{type(exc).__name__}: {exc}"
                methods = ["threshold-spectral", "spectral-direct"][: 2 if baseline else 1]
                records.extend({**meta, "method": method, "error": error} for method in methods)
    summary = summarize_records(records)
    return records, summary


def summarize_records(records: list[dict]) -> list[dict]:
    """Quartile rows (q1, median, q3) per grid point and method."""
    keys = sorted(
        {(rec["point"], rec["method"]) for rec in records},
        key=lambda pair: (pair[0], pair[1]),
    )
    rows = []
    for point, method in keys:
        group = [r for r in records if r["point"] == point and r["method"] == method]
        good = [r for r in group if "error" not in r]
        row = {
            "point": point,
            "method": method,
            "runs": len(good),
            "failures": len(group) - len(good),
        }
        for metric in _SUMMARY_METRICS:
            values = [r[metric] for r in good if r.get(metric) is not None]
            if values:
                q1, q2, q3 = np.percentile(values, [25.0, 50.0, 75.0])
                row[f"{metric}_q1"] = float(q1)
                row[f"{metric}_median"] = float(q2)
                row[f"{metric}_q3"] = float(q3)
            else:
                row[f"{metric}_q1"] = None
                row[f"{metric}_median"] = None
                row[f"{metric}_q3"] = None
        rows.append(row)
    return rows
