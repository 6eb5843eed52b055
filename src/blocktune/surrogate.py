"""Learned performance models: storing time (validation + committing) and
latency as functions of block composition and node bandwidth.

Three model families are used, one per target: a gradient-boosted tree
ensemble for validation time, a low-degree polynomial for committing time,
and a single regression tree for latency. ``PerformancePredictor`` bundles
the three behind the two functions the optimizer needs: ``f`` (storing
time = validation + committing) and ``g`` (latency). Predictors answer
batches only: every query is a (k, 3) array of (tx_count, block_bytes,
bandwidth) rows.

Training data is one (k, 6) float64 array with its columns in
``DATASET_COLUMNS`` order, from the simulator through the dataset file to
:func:`fit_predictor`.

Trees are fitted on distinct feature rows. A simulated training set repeats
its rows heavily (every block of a grid cell has the same block size,
transaction size and bandwidth), so :func:`fit_boosted` and
:func:`fit_tree` each group the rows once (:func:`_kernels.group_rows`),
and :func:`fit_predictor` groups its train rows once more for its MSEs,
which price each distinct row once. Each fit builds one split plan
(:func:`_kernels.split_plan`) of what no round changes: each feature's
sorted group order and cuts, the root's admissible cuts, and the features
that can win a split. Every tree grows over the groups alone, a level at a
time, every node of one depth split in one :func:`_kernels.level_splits`
pass over the plan, as XGBoost's depth-wise growth does (Chen and
Guestrin, KDD 2016). A node's ``value`` is the sum, in group order, of its
groups' target sums divided by its row count: the mean of its rows'
targets, rounded apart from ``ndarray.mean`` only in the last bits. Its
``n_samples`` and ``min_samples_leaf`` count rows, so the splits are the
ones a per-row search would choose. The polynomial is fitted on the rows.

``RegressionTree`` and ``BoostedEnsemble`` are plain data, each one node
set (see :mod:`blocktune._kernels`) with one ``max_depth`` and
``min_samples_leaf``: a tree's one root is node 0, and the ensemble stores
its rounds' trees back to back, each numbered breadth-first on from the
last. An internal node's two children are adjacent, left first, so a node
stores only its ``left``. Their ``predict`` is one walk.
``PerformancePredictor`` builds the only two cell tables, once, when built,
and answers ``f`` and ``g`` from them, bit-identical to the walk. A model
is tabulated only when its grid has at most as many cells as the model had
training rows (``n_samples[0]``), so filling the table never costs more
than one walk of the training set; above that bound the predictor answers
with the model's walk. The polynomial is evaluated directly, as coefficient × monomial
added in monomial order.

Every answer is a function of its own row alone, bit for bit: a lookup, a
walk or an element-wise sum, never a matrix product, whose rounding
depends on the batch. So :func:`blocktune.model.block_times` prices each
distinct block of a GA generation once, and the objective still prices an
assignment the same alone or in a population.

The model classes are dataclasses whose fields are the stored model's
keys, so :func:`blocktune.configio.build_config` reads a stored model and
:func:`blocktune.configio.to_json` writes one, by the rule every config
follows. A stored model holds only what its answers read: nothing that
its class, its ``degree`` or its ``left`` already fixes. Each
``__post_init__`` checks what a type hint cannot say, such as a node set's
children after their parents, so that every walk ends (one check,
:func:`_check_nodes`, per model). :meth:`PerformancePredictor.load` raises
DatasetError naming the file and the key.

Fitting is deterministic given identical samples and hyperparameters, and
fitted models are immutable, so predictors can be shared freely between
concurrent evaluators.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import _kernels, configio
from .errors import ConfigError, DatasetError, FitError

FEATURE_NAMES = ("tx_count", "block_bytes", "bandwidth")
DATASET_COLUMNS = ("tx_count", "block_bytes", "bandwidth", "vt_s", "ct_s", "latency_s")
POLY_DEGREES = (1, 2, 3)

_GAIN_EPS = 1e-12


# ---------------------------------------------------------------------------
# dataset file I/O
# ---------------------------------------------------------------------------

def load_dataset(path) -> np.ndarray:
    """Parse the columnar dataset format (see DATASET_COLUMNS for the header)
    into a (k, 6) float64 array in DATASET_COLUMNS order.

    Errors cite the 1-based file line and the offending column.
    """
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetError(f"{path}: empty dataset file")
    header = tuple(col.strip() for col in lines[0].split(","))
    if header != DATASET_COLUMNS:
        raise DatasetError(
            f"{path}: line 1: expected header {','.join(DATASET_COLUMNS)}, "
            f"got {lines[0]!r}")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = line.split(",")
        if len(cells) != len(DATASET_COLUMNS):
            raise DatasetError(
                f"{path}: line {lineno}: expected {len(DATASET_COLUMNS)} columns, "
                f"got {len(cells)}")
        values = {}
        for col, cell in zip(DATASET_COLUMNS, cells):
            try:
                values[col] = float(cell)
            except ValueError:
                raise DatasetError(
                    f"{path}: line {lineno}: column {col}: not a number: {cell!r}"
                ) from None
            if not np.isfinite(values[col]):
                raise DatasetError(
                    f"{path}: line {lineno}: column {col}: not finite: {cell!r}")
        for col in ("tx_count", "block_bytes"):
            if values[col] < 1 or values[col] != int(values[col]):
                raise DatasetError(
                    f"{path}: line {lineno}: column {col}: must be a positive integer")
        if not values["bandwidth"] > 0:
            raise DatasetError(
                f"{path}: line {lineno}: column bandwidth: must be > 0")
        for col in ("vt_s", "ct_s", "latency_s"):
            if values[col] < 0:
                raise DatasetError(
                    f"{path}: line {lineno}: column {col}: must be >= 0")
        rows.append(list(values.values()))
    return np.array(rows, dtype=np.float64).reshape(-1, len(DATASET_COLUMNS))


def save_dataset(data, path):
    """Write a (k, 6) dataset array in the documented columnar format,
    atomically; floats round-trip exactly through :func:`load_dataset`."""
    # tolist() yields Python floats, written as their shortest exact form.
    configio.write_csv(path, DATASET_COLUMNS,
                       ([int(tx_count), int(block_bytes), *rest]
                        for tx_count, block_bytes, *rest in np.asarray(data).tolist()))


# ---------------------------------------------------------------------------
# polynomial regression
# ---------------------------------------------------------------------------

def _monomial_exponents(degree: int):
    """All exponent triples with total degree <= degree, ordered by total
    degree and then with the tx_count exponent leading."""
    exps = []
    for total in range(degree + 1):
        for a in range(total, -1, -1):
            for b in range(total - a, -1, -1):
                exps.append((a, b, total - a - b))
    return exps


def monomial_name(exponents) -> str:
    parts = []
    for name, e in zip(FEATURE_NAMES, exponents):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts) if parts else "1"


def _monomials(z, exponents):
    """Each monomial's column at standardized rows ``z``, in ``exponents``
    order. Each power ``z[:, f] ** e`` is computed once, and a monomial
    multiplies its factors in feature order, as ``np.prod`` over them does,
    so every column is the same bit for bit."""
    powers = {}
    for exps in exponents:
        col = None
        for f, e in enumerate(exps):
            if e:
                power = powers.get((f, e))
                if power is None:
                    power = powers[f, e] = z[:, f] ** e
                col = power if col is None else col * power
        yield np.ones(z.shape[0]) if col is None else col


def _design_matrix(z, exponents):
    """The (rows, monomials) design at standardized rows ``z``."""
    return np.column_stack(list(_monomials(z, exponents)))


@dataclass(eq=False)
class PolynomialModel:
    """Least-squares polynomial over the monomial expansion of the three
    features, fitted on internally standardized inputs."""

    degree: int
    coefficients: np.ndarray
    feature_mean: np.ndarray
    feature_scale: np.ndarray

    def __post_init__(self):
        if self.degree not in POLY_DEGREES:
            raise ConfigError(f"degree must be one of {POLY_DEGREES}, got {self.degree}")
        # the monomials in coefficient order: fixed by the degree, so not stored
        self.exponents = exponents = _monomial_exponents(self.degree)
        self.coefficients = np.asarray(self.coefficients, dtype=np.float64)
        self.feature_mean = np.asarray(self.feature_mean, dtype=np.float64)
        self.feature_scale = np.asarray(self.feature_scale, dtype=np.float64)
        if self.coefficients.shape != (len(exponents),):
            raise ConfigError(f"coefficients: expected {len(exponents)}, one per "
                              f"exponent, got {self.coefficients.size}")
        if not np.isfinite(self.coefficients).all():
            raise ConfigError("coefficients: not finite")
        n = len(FEATURE_NAMES)
        if self.feature_mean.shape != (n,) or not np.isfinite(self.feature_mean).all():
            raise ConfigError(f"feature_mean: expected {n} finite values, "
                              f"got {self.feature_mean.tolist()!r}")
        scale = self.feature_scale
        if scale.shape != (n,) or not (np.isfinite(scale) & (scale > 0)).all():
            raise ConfigError(f"feature_scale: expected {n} finite positive values, "
                              f"got {scale.tolist()!r}")

    def predict(self, points) -> np.ndarray:
        """Σ coefficient × monomial, added row by row in monomial order, so
        a row's value does not depend on the other rows of its batch (a
        matrix-vector product rounds by batch)."""
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        z = (points - self.feature_mean) / self.feature_scale
        total = np.zeros(z.shape[0])
        for coef, col in zip(self.coefficients, _monomials(z, self.exponents)):
            total += coef * col
        return total


def fit_polynomial(points, targets, degree: int = 2) -> PolynomialModel:
    """Fit a degree-``degree`` polynomial to ``targets`` at ``points`` (n, 3)
    by linear least squares over standardized features.

    The solve goes through an orthogonal decomposition, never the normal
    equations. A rank-deficient design raises naming each monomial that does
    not raise the rank of the monomials before it, in ``_monomial_exponents``
    order. Of a collinear set, that names the later members, which may not be
    the ones a pivoted QR would name.
    """
    if degree not in POLY_DEGREES:
        raise FitError(f"polynomial degree must be 1, 2 or 3, got {degree}")
    points = np.asarray(points, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)

    exponents = _monomial_exponents(degree)
    n_terms = len(exponents)
    if points.shape[0] < n_terms:
        raise FitError(
            f"degree {degree} needs at least {n_terms} samples, got {points.shape[0]}")

    mean = points.mean(axis=0)
    scale = points.std(axis=0)
    scale[scale == 0] = 1.0
    z = (points - mean) / scale
    design = _design_matrix(z, exponents)

    # lstsq(rcond=None) cuts singular values at eps·max(M, N)·σ_max, the
    # tolerance matrix_rank takes by default, so its rank is matrix_rank's.
    coef, _, rank, _ = np.linalg.lstsq(design, targets, rcond=None)
    if rank < n_terms:
        # Under that tolerance on the whole design, adding a column raises
        # the rank by 0 or 1, so n_terms - rank are named.
        tol = np.linalg.norm(design, 2) * max(design.shape) * np.finfo(np.float64).eps
        bad, prefix_rank = [], 0
        for j, exps in enumerate(exponents):
            r = np.linalg.matrix_rank(design[:, :j + 1], tol=tol)
            if r == prefix_rank:
                bad.append(monomial_name(exps))
            prefix_rank = r
        raise FitError(
            "rank-deficient polynomial design; degenerate columns: " + ", ".join(bad))
    return PolynomialModel(degree, coef, mean, scale)


# ---------------------------------------------------------------------------
# regression trees and boosting
# ---------------------------------------------------------------------------

def _check_nodes(model):
    """Reject a node set the walk could not answer for, and return its roots:
    the nodes no internal node points at. ``feature``, ``left`` and
    ``n_samples`` become int64 arrays."""
    n = len(model.feature)
    for name in ("feature", "threshold", "left", "value", "n_samples"):
        a = np.asarray(getattr(model, name), dtype=np.float64)
        if a.shape != (n,):
            raise ConfigError(f"{name}: {a.size} entries, feature has {n}")
        if not np.isfinite(a).all():
            raise ConfigError(f"{name}: not finite")
        if name not in ("threshold", "value"):
            if (a != np.trunc(a)).any():
                raise ConfigError(f"{name}: expected integers")
            a = a.astype(np.int64)
        setattr(model, name, a)
    if ((model.feature < -1) | (model.feature >= len(FEATURE_NAMES))).any():
        raise ConfigError(f"feature: must be -1 (leaf) or a feature index below "
                          f"{len(FEATURE_NAMES)}")
    internal = np.flatnonzero(model.feature >= 0)
    child = model.left[internal]
    if ((child <= internal) | (child >= n - 1)).any():
        raise ConfigError(f"left: an internal node's child must lie after it and "
                          f"below {n} (its children are left and left + 1)")
    pointed = np.zeros(n, dtype=bool)
    pointed[child] = pointed[child + 1] = True
    return np.flatnonzero(~pointed)


@dataclass(eq=False)
class _NodeSet:
    """CART-style regression trees as one node set: an internal node stores
    its left child, the right one being the next node, and the split
    (feature, threshold, a midpoint between distinct values) that reduces
    squared error most, and every node the mean and the count of the
    training targets that reached it."""

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray
    max_depth: int
    min_samples_leaf: int

    def __post_init__(self):
        self._roots = _check_nodes(self)

    def _walk(self, points, base=0.0, rate=1.0) -> np.ndarray:
        points = np.atleast_2d(np.asarray(points, dtype=np.float64))
        return _kernels.forest_predict(self.feature, self.threshold, self.left,
                                       self.value, self._roots, points, base, rate)


@dataclass(eq=False)
class RegressionTree(_NodeSet):
    """One regression tree: a node set whose one root is node 0."""

    def __post_init__(self):
        super().__post_init__()
        if self._roots.tolist() != [0]:
            raise ConfigError(f"a tree has one root, node 0, not {self._roots.tolist()}")

    def predict(self, points) -> np.ndarray:
        return self._walk(points)


def _groups(points, targets):
    """The distinct rows of ``points``, each row's group, each group's row
    count, its target sum, summed in row order, and the sum of its targets'
    squared deviations from its mean."""
    first, inverse, counts = _kernels.group_rows(*points.T)
    sums = np.bincount(inverse, weights=targets, minlength=counts.size)
    spread = targets - (sums / counts)[inverse]
    return (points[first], inverse, counts, sums,
            np.bincount(inverse, weights=spread * spread, minlength=counts.size))


def _grow_tree(plan, unique, counts, sums, spread, max_depth, levels, first=0):
    """Grow one tree over the groups ``unique`` (row counts ``counts``,
    target sums ``sums`` and targets' squared deviations from their group
    mean ``spread``), a depth per :func:`_kernels.level_splits` call over
    the fit's ``plan``, and append each depth's (feature, threshold, left,
    value, n_samples) to ``levels``. Nodes are numbered breadth-first from
    ``first``; a node's ``value`` is the sum, in group order, of its groups'
    target sums over its row count, ``n_samples``. Returns each group's leaf
    value and the tree's node count."""
    sum_sq = spread + sums * sums / counts
    # each group's node among the current depth's, or ``width`` once in a leaf
    node = np.zeros(counts.size, dtype=np.int64)
    reached = np.zeros(counts.size, dtype=np.int64)  # its deepest node so far
    values = []
    lo, width = 0, 1  # the current depth's first node and node count
    for depth in range(max_depth + 1):
        n = np.bincount(node, weights=counts, minlength=width + 1)[:width]
        values.append(np.bincount(node, weights=sums, minlength=width + 1)[:width] / n)
        if depth == max_depth:
            levels.append((np.full(width, -1), np.zeros(width), np.full(width, -1),
                           values[-1], n))
            break
        q = np.bincount(node, weights=sum_sq, minlength=width + 1)[:width]
        f, thr, gain = _kernels.level_splits(plan, sums, node if depth else None, q)
        # one entry per node and one for the groups in leaves, which never split
        split = np.concatenate((gain, [-np.inf])) > _GAIN_EPS
        kept, ids = split[:width], split.nonzero()[0]
        feature, threshold = np.where(kept, f, -1), np.where(kept, thr, 0.0)
        # each split node's left child, numbered among the next depth's nodes
        pair = np.zeros(width, dtype=np.int64)
        pair[ids] = np.arange(0, 2 * ids.size, 2)
        levels.append((feature, threshold, np.where(kept, first + lo + width + pair, -1),
                       values[-1], n))
        if not ids.size:
            break
        moving = split[node].nonzero()[0]
        at = node[moving]
        lo, width = lo + width, 2 * ids.size
        node = np.full(counts.size, width)
        node[moving] = pair[at] + (unique[moving, feature[at]] > threshold[at])
        reached[moving] = lo + node[moving]
    return np.concatenate(values)[reached], lo + width


def _node_arrays(levels):
    """The five node arrays of the depths :func:`_grow_tree` appended."""
    return [np.concatenate(a) for a in zip(*levels)] if levels else [np.empty(0)] * 5


def fit_tree(points, targets, max_depth: int = 6,
             min_samples_leaf: int = 5) -> RegressionTree:
    """Grow a regression tree on ``targets`` at ``points`` (n, 3) greedily,
    a level at a time, stopping on depth, leaf size, or zero gain.

    The tree grows over the distinct feature rows of ``points``
    (:func:`_kernels.group_rows`), with their row counts, target sums (in
    row order) and spreads about their means, through one
    :func:`_kernels.split_plan`. ``n_samples`` and ``min_samples_leaf``
    count rows, so the tree splits as one grown over every row would; a
    node's ``value`` is its groups' target sums, summed in group order,
    over its row count.
    """
    points = np.asarray(points, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if points.shape[0] == 0:
        raise FitError("cannot fit a tree on an empty sample set")
    unique, _, counts, sums, spread = _groups(points, targets)
    plan = _kernels.split_plan(unique, counts, min_samples_leaf)
    levels = []
    _grow_tree(plan, unique, counts, sums, spread, max_depth, levels)
    return RegressionTree(*_node_arrays(levels), max_depth, min_samples_leaf)


@dataclass(eq=False)
class BoostedEnsemble(_NodeSet):
    """Squared-error gradient boosting: the target mean plus ``learning_rate``
    times each round's tree, the rounds in the index order of their roots.
    The training MSE trace is non-increasing."""

    base_value: float
    learning_rate: float
    train_mse: tuple[float, ...]

    def __post_init__(self):
        super().__post_init__()
        if not math.isfinite(self.base_value):
            raise ConfigError(f"base_value must be finite, got {self.base_value}")
        if not 0 < self.learning_rate <= 1:
            raise ConfigError(f"learning_rate must be in (0, 1], got {self.learning_rate}")

    def predict(self, points) -> np.ndarray:
        return self._walk(points, self.base_value, self.learning_rate)


def fit_boosted(points, targets, rounds: int = 100, learning_rate: float = 0.1,
                tree_depth: int = 3, min_samples_leaf: int = 1) -> BoostedEnsemble:
    """Boost regression trees on ``targets`` at ``points`` (n, 3) against
    squared error.

    Round 0 predicts the target mean; each round fits a tree to the current
    residuals and adds it scaled by ``learning_rate``. The rows are grouped
    once, and every tree grows over those distinct rows, as in
    :func:`fit_tree`, through one split plan for the whole fit. Each
    distinct row carries its residual sum: the round-0 residuals summed in
    row order, less each later round's step (``learning_rate`` times the
    value of the leaf the row reached) times its row count. Its residuals'
    sum of squares is their spread about their mean, which no round
    changes, plus the squared sum over the row count. The row residuals
    take each round's step from the leaf their distinct row reached,
    without a walk, in place, and ``train_mse`` is their mean square,
    squared into one reused buffer.
    """
    if not 0 < learning_rate <= 1:
        raise FitError(f"learning_rate must be in (0, 1], got {learning_rate}")
    points = np.asarray(points, dtype=np.float64)
    targets = np.asarray(targets, dtype=np.float64)
    if points.shape[0] < 2:
        raise FitError("boosting needs at least 2 samples")

    base = float(targets.mean())
    residuals = targets - base
    unique, inverse, counts, sums, spread = _groups(points, residuals)
    plan = _kernels.split_plan(unique, counts, min_samples_leaf)
    squares = residuals * residuals
    train_mse = [float(squares.mean())]
    levels, first = [], 0
    for _ in range(rounds):
        leaf_value, size = _grow_tree(plan, unique, counts, sums, spread, tree_depth,
                                      levels, first)
        first += size
        step = learning_rate * leaf_value
        np.subtract(residuals, step[inverse], out=residuals)
        sums = sums - counts * step
        train_mse.append(float(np.multiply(residuals, residuals, out=squares).mean()))
    return BoostedEnsemble(*_node_arrays(levels), tree_depth, min_samples_leaf, base,
                           learning_rate, tuple(train_mse))


# ---------------------------------------------------------------------------
# composite predictor
# ---------------------------------------------------------------------------

def _cell_lookup(model):
    """The function that answers for the tree model ``model``: a lookup into
    its cell table (:func:`_kernels.tabulate`), or its own walk when its grid
    has more cells than it had training rows (``n_samples[0]``)."""
    if model.feature.size:
        table = _kernels.tabulate(model.feature, model.threshold, model.predict,
                                  len(FEATURE_NAMES), model.n_samples[0])
        if table is not None:
            return functools.partial(_kernels.table_predict, *table)
    return model.predict


@dataclass(frozen=True)
class SurrogateConfig:
    """Hyperparameters for the three models; fixed documented defaults,
    overridable through config files."""

    poly_degree: int = 2
    boost_rounds: int = 100
    boost_learning_rate: float = 0.1
    boost_tree_depth: int = 3
    boost_min_samples_leaf: int = 1
    tree_max_depth: int = 6
    tree_min_samples_leaf: int = 5
    holdout_fraction: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        if self.poly_degree not in POLY_DEGREES:
            raise ConfigError(f"poly_degree must be one of {POLY_DEGREES}, "
                              f"got {self.poly_degree}")
        for name, least in (("boost_rounds", 0), ("boost_tree_depth", 0),
                            ("tree_max_depth", 0), ("boost_min_samples_leaf", 1),
                            ("tree_min_samples_leaf", 1)):
            if getattr(self, name) < least:
                raise ConfigError(f"{name} must be >= {least}, got {getattr(self, name)}")
        if not 0 < self.boost_learning_rate <= 1:
            raise ConfigError(f"boost_learning_rate must be in (0, 1], "
                              f"got {self.boost_learning_rate}")
        if not 0 <= self.holdout_fraction < 1:
            raise ConfigError(f"holdout_fraction must be in [0, 1), "
                              f"got {self.holdout_fraction}")


@dataclass(frozen=True)
class FitReport:
    """The row counts a predictor was fitted on, and each model's mean
    squared error on the training and the holdout rows, keyed by target
    (``vt``, ``ct``, ``latency``); a holdout MSE is None without holdout."""

    n_samples: int
    n_train: int
    n_holdout: int
    train_mse: dict[str, float]
    holdout_mse: dict[str, float | None]


@dataclass(eq=False)
class PerformancePredictor:
    """The fitted performance functions used inside the optimizer.

    ``f`` (storing time) is the clamped sum of the validation-time and
    committing-time model outputs; ``g`` (latency) is the clamped latency
    model output. ``feature_ranges`` records the training envelope, one
    [low, high] pair per feature, so callers can flag extrapolating queries
    in their reports.
    """

    vt_model: BoostedEnsemble
    ct_model: PolynomialModel
    latency_model: RegressionTree
    feature_ranges: tuple[tuple[float, float], ...]
    fit_report: FitReport | None = None

    def __post_init__(self):
        if len(self.feature_ranges) != len(FEATURE_NAMES):
            raise ConfigError(f"feature_ranges: expected {len(FEATURE_NAMES)} "
                              f"[low, high] pairs, got {len(self.feature_ranges)}")
        self._lo, self._hi = np.array(self.feature_ranges, dtype=np.float64).T
        for i, (lo, hi) in enumerate(zip(self._lo, self._hi)):
            if not lo <= hi:
                raise ConfigError(f"feature_ranges[{i}]: low {lo} exceeds high {hi}")
        self._vt = _cell_lookup(self.vt_model)
        self._latency = _cell_lookup(self.latency_model)

    def _rows(self, points) -> np.ndarray:
        return np.atleast_2d(np.asarray(points, dtype=np.float64))

    def predict_f_batch(self, points) -> np.ndarray:
        rows = self._rows(points)
        vt = np.maximum(self._vt(rows), 0.0)
        ct = np.maximum(self.ct_model.predict(rows), 0.0)
        return vt + ct

    def predict_g_batch(self, points) -> np.ndarray:
        return np.maximum(self._latency(self._rows(points)), 0.0)

    def extrapolation_mask(self, points) -> np.ndarray:
        """True per row when any feature falls outside the training range."""
        rows = self._rows(points)
        return ((rows < self._lo) | (rows > self._hi)).any(axis=1)

    @classmethod
    def load(cls, path) -> "PerformancePredictor":
        """The predictor stored at ``path`` by :func:`configio.to_json`; a
        malformed file raises DatasetError naming the file and the key."""
        try:
            return configio.build_config(cls, configio.load_json(path), str(path))
        except ConfigError as exc:
            raise DatasetError(str(exc)) from None


def fit_predictor(data, config: SurrogateConfig = SurrogateConfig()
                  ) -> PerformancePredictor:
    """Fit all three models on the (k, 6) dataset array ``data``, whose
    columns are in DATASET_COLUMNS order.

    With ``holdout_fraction`` > 0 and at least 10 rows the models are
    fitted on a deterministic train split and the report carries both train
    and holdout MSE per target; otherwise everything trains on the full set.
    The training envelope, ``feature_ranges``, spans the train rows. The
    MSEs come from what the predictor answers, its cell tables included.
    """
    if len(data) == 0:
        raise FitError("cannot fit a predictor on an empty dataset")
    data = np.asarray(data, dtype=np.float64)
    points = np.ascontiguousarray(data[:, :3])
    vt, ct, lat = (data[:, col].copy() for col in (3, 4, 5))

    n = points.shape[0]
    if config.holdout_fraction > 0 and n >= 10:
        rng = np.random.default_rng(config.rng_seed)
        order = rng.permutation(n)
        n_hold = max(1, int(round(config.holdout_fraction * n)))
        hold, train = order[:n_hold], order[n_hold:]
    else:
        train = np.arange(n)
        hold = np.empty(0, dtype=np.int64)

    tp = points[train]
    groups = _kernels.group_rows(*tp.T)
    vt_model = fit_boosted(tp, vt[train], rounds=config.boost_rounds,
                           learning_rate=config.boost_learning_rate,
                           tree_depth=config.boost_tree_depth,
                           min_samples_leaf=config.boost_min_samples_leaf)
    ct_model = fit_polynomial(tp, ct[train], degree=config.poly_degree)
    latency_model = fit_tree(tp, lat[train], max_depth=config.tree_max_depth,
                             min_samples_leaf=config.tree_min_samples_leaf)

    ranges = tuple(zip(tp.min(axis=0).tolist(), tp.max(axis=0).tolist()))
    predictor = PerformancePredictor(vt_model, ct_model, latency_model, ranges)

    def _mse(predict, idx, target):
        if idx.size == 0:
            return None
        # a train row's price is its distinct row's, priced once
        prices = predict(tp[groups[0]])[groups[1]] if idx is train else predict(points[idx])
        return float(np.mean((prices - target[idx]) ** 2))

    predictor.fit_report = FitReport(
        n_samples=int(n),
        n_train=int(train.size),
        n_holdout=int(hold.size),
        train_mse={"vt": _mse(predictor._vt, train, vt),
                   "ct": _mse(ct_model.predict, train, ct),
                   "latency": _mse(predictor._latency, train, lat)},
        holdout_mse={"vt": _mse(predictor._vt, hold, vt),
                     "ct": _mse(ct_model.predict, hold, ct),
                     "latency": _mse(predictor._latency, hold, lat)},
    )
    return predictor
