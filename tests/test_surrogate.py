"""Surrogate models: exact recovery, monotone training loss, the forest walk
and the cell tables equal to per-tree walks, answers that do not depend on
row layout, stored-model checks, dataset I/O."""

import gc
import json
import types
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from blocktune import _kernels, surrogate
from blocktune.configio import build_config, to_json, write_json
from blocktune.errors import ConfigError, DatasetError, FitError
from blocktune.simulator import DataGrid, generate_training_dataset
from blocktune.surrogate import (
    BoostedEnsemble,
    PerformancePredictor,
    PolynomialModel,
    RegressionTree,
    SurrogateConfig,
    fit_boosted,
    fit_polynomial,
    fit_predictor,
    fit_tree,
    load_dataset,
    monomial_name,
    save_dataset,
)
from blocktune.surrogate import _GAIN_EPS, _design_matrix, _monomial_exponents


def grid_points(rng=None, n=60):
    """Well-spread feature points varying all three features."""
    if rng is None:
        rng = np.random.default_rng(42)
    counts = rng.integers(1, 200, size=n).astype(float)
    nbytes = rng.integers(100, 500_000, size=n).astype(float)
    bw = rng.uniform(1e5, 1e8, size=n)
    return np.column_stack([counts, nbytes, bw])


def dataset(points, vt, ct, latency):
    """A (k, 6) training array: feature rows plus the three targets, each a
    scalar or one value per row."""
    k = points.shape[0]
    return np.column_stack([points] + [np.broadcast_to(t, k)
                                       for t in (vt, ct, latency)])


class TestPolynomial:
    def test_recovers_affine_in_tx_count(self):
        points = grid_points()
        targets = 2.0 + 3.0 * points[:, 0]
        model = fit_polynomial(points, targets, degree=1)
        # bytes and bandwidth carry no weight, even far outside the data
        known = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [10.0, 5e5, 1e7],
                          [10.0, 1e9, 1e3]])
        np.testing.assert_allclose(model.predict(known), [2.0, 5.0, 32.0, 32.0],
                                   rtol=1e-9, atol=1e-9)

    def test_constant_targets(self):
        points = grid_points()
        targets = np.full(points.shape[0], 7.25)
        model = fit_polynomial(points, targets, degree=1)
        known = np.array([[0.0, 0.0, 0.0], [1.0, 100.0, 1e5], [500.0, 1e7, 1e9]])
        np.testing.assert_allclose(model.predict(known), 7.25, rtol=0, atol=1e-9)

    def test_exact_quadratic_representable(self):
        points = grid_points()
        targets = (points[:, 1] / 1e4) ** 2
        model = fit_polynomial(points, targets, degree=2)
        residual = model.predict(points) - targets
        assert np.linalg.norm(residual) < 1e-6

    def test_noiseless_recall_relative(self):
        rng = np.random.default_rng(8)
        points = grid_points(rng)
        targets = (0.5 + 0.01 * points[:, 0] + 1e-6 * points[:, 1]
                   + 1e-9 * points[:, 2] + 1e-8 * points[:, 0] * points[:, 1])
        model = fit_polynomial(points, targets, degree=2)
        rel = np.abs(model.predict(points) - targets) / np.abs(targets)
        assert rel.max() < 1e-6

    def test_too_few_samples(self):
        points = grid_points(n=5)
        with pytest.raises(FitError, match="at least"):
            fit_polynomial(points, np.ones(5), degree=2)

    def test_degenerate_column_named(self):
        points = grid_points()
        points[:, 2] = 5e6  # constant bandwidth collapses its monomials
        with pytest.raises(FitError, match="bandwidth"):
            fit_polynomial(points, points[:, 0], degree=1)

    def test_collinear_pair_names_only_dependent_monomials(self):
        points = grid_points()
        points[:, 1] = 1024.0 * points[:, 0]  # uniform tx size: bytes track count
        with pytest.raises(FitError, match="rank-deficient") as info:
            fit_polynomial(points, points[:, 0], degree=2)
        named = info.value.args[0].split(": ", 1)[1].split(", ")
        # block_bytes repeats tx_count, so every monomial holding it repeats
        # the one with tx_count in its place, which comes earlier
        assert named == ["block_bytes", "tx_count*block_bytes", "block_bytes^2",
                         "block_bytes*bandwidth"]
        exponents = _monomial_exponents(2)
        z = (points - points.mean(axis=0)) / points.std(axis=0)
        design = _design_matrix(z, exponents)
        kept = [j for j, e in enumerate(exponents) if monomial_name(e) not in named]
        rank = np.linalg.matrix_rank(design)
        assert np.linalg.matrix_rank(design[:, kept]) == rank == len(kept)

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("n_rows", [1, 300])
    def test_design_matrix_equals_product_of_powers(self, degree, n_rows):
        z = np.random.default_rng(degree).normal(scale=3.0, size=(n_rows, 3))
        exponents = _monomial_exponents(degree)
        reference = np.column_stack([
            np.prod([z[:, f] ** e for f, e in enumerate(exps) if e], axis=0)
            if any(exps) else np.ones(n_rows)
            for exps in exponents])
        assert np.array_equal(_design_matrix(z, exponents), reference)

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), degree=st.sampled_from([1, 2, 3]),
           data=st.data())
    def test_row_does_not_depend_on_its_batch(self, seed, degree, data):
        """Any subset of a batch predicts the bits the full batch gives those
        rows: each row adds coefficient x monomial in monomial order, with
        no matrix product, whose rounding depends on the batch."""
        rng = np.random.default_rng(seed)
        points = grid_points(rng, n=40)
        model = fit_polynomial(points, 0.02 + 1e-3 * points[:, 0] + rng.normal(size=40),
                               degree)
        rows = grid_points(rng, n=data.draw(st.integers(1, 200), label="rows"))
        subset = data.draw(st.lists(st.integers(0, len(rows) - 1), min_size=1,
                                    max_size=len(rows)), label="subset")
        full = model.predict(rows)
        assert np.array_equal(model.predict(rows[subset]), full[subset])
        z = (rows - model.feature_mean) / model.feature_scale
        want = np.zeros(len(rows))
        for coef, col in zip(model.coefficients, _design_matrix(z, model.exponents).T):
            want += coef * col
        assert np.array_equal(full, want)

    def test_bad_degree(self):
        with pytest.raises(FitError):
            fit_polynomial(grid_points(), np.ones(60), degree=4)


class TestRegressionTree:
    def test_single_sample_single_leaf(self):
        tree = fit_tree(np.array([[3.0, 100.0, 1e6]]), np.array([0.42]))
        assert tree.feature.size == 1 and tree.feature[0] == -1
        assert tree.predict([[9.0, 9.0, 9.0]])[0] == pytest.approx(0.42)

    def test_hand_computable_split(self):
        counts = np.array([1.0, 2.0, 3.0, 4.0, 6.0, 7.0, 8.0, 9.0, 10.0])
        points = np.column_stack([counts, np.full(9, 500.0), np.full(9, 1e6)])
        targets = np.where(counts <= 5, 1.0, 9.0)
        tree = fit_tree(points, targets, min_samples_leaf=1)
        assert tree.feature[0] == 0
        assert tree.threshold[0] == pytest.approx(5.0)
        preds = sorted(set(tree.predict(points).tolist()))
        assert preds == [pytest.approx(1.0), pytest.approx(9.0)]

    def test_prediction_is_leaf_mean(self):
        rng = np.random.default_rng(19)
        points = grid_points(rng, n=80)
        targets = rng.normal(size=80)
        tree = fit_tree(points, targets, max_depth=3, min_samples_leaf=5)
        preds = tree.predict(points)
        for leaf_value in np.unique(preds):
            members = targets[preds == leaf_value]
            assert leaf_value == pytest.approx(members.mean())
            assert members.size >= 5 or tree.feature.size == 1

    def test_empty_raises(self):
        with pytest.raises(FitError):
            fit_tree(np.empty((0, 3)), np.empty(0))

    def test_fit_keeps_no_cycle_holding_the_targets(self):
        """A fit leaves no reference cycle behind: with the garbage
        collector off, the targets are freed as soon as the caller drops
        them. Boosting fits one tree per round on a fresh residual array,
        so a cycle per tree would hold many of them until a collection."""
        rng = np.random.default_rng(29)
        points = grid_points(rng, n=80)
        targets = rng.normal(size=80)
        freed = weakref.ref(targets)
        gc.disable()
        try:
            fit_tree(points, targets, max_depth=3, min_samples_leaf=1)
            del targets
            assert freed() is None
        finally:
            gc.enable()

    def test_mse_non_increasing_in_depth(self):
        rng = np.random.default_rng(23)
        points = grid_points(rng, n=120)
        targets = 0.01 * points[:, 0] + rng.normal(scale=0.1, size=120)
        last = np.inf
        for depth in range(0, 8):
            tree = fit_tree(points, targets, max_depth=depth, min_samples_leaf=1)
            mse = float(np.mean((tree.predict(points) - targets) ** 2))
            assert mse <= last + 1e-12
            last = mse

    def test_depth_respected(self):
        rng = np.random.default_rng(27)
        points = grid_points(rng, n=200)
        targets = rng.normal(size=200)
        tree = fit_tree(points, targets, max_depth=4, min_samples_leaf=1)

        def depth(node):
            if tree.feature[node] < 0:
                return 0
            return 1 + max(depth(tree.left[node]), depth(tree.left[node] + 1))

        assert depth(0) == 4  # 200 noisy targets fill every level allowed


class TestBoosting:
    def test_zero_rounds_predicts_mean(self):
        points = grid_points(n=20)
        targets = np.linspace(0.0, 2.0, 20)
        model = fit_boosted(points, targets, rounds=0)
        np.testing.assert_allclose(model.predict(points), targets.mean())

    def test_constant_targets_zero_mse(self):
        points = grid_points(n=20)
        model = fit_boosted(points, np.full(20, 1.5), rounds=5)
        assert model.train_mse[0] == pytest.approx(0.0, abs=1e-18)
        np.testing.assert_allclose(model.predict(points), 1.5, atol=1e-12)

    def test_mse_trace_monotone_non_increasing(self):
        rng = np.random.default_rng(31)
        points = grid_points(rng, n=150)
        targets = (0.002 * points[:, 0] + 1e-7 * points[:, 1]
                   + rng.normal(scale=0.05, size=150))
        model = fit_boosted(points, targets, rounds=50)
        trace = np.array(model.train_mse)
        assert trace.size == 51
        assert (np.diff(trace) <= 1e-15).all()

    def test_full_rate_deep_trees_drive_residuals_to_zero(self):
        rng = np.random.default_rng(37)
        points = grid_points(rng, n=64)
        targets = rng.normal(size=64)
        model = fit_boosted(points, targets, rounds=5, learning_rate=1.0,
                            tree_depth=30, min_samples_leaf=1)
        assert model.train_mse[-1] < 1e-20

    def test_too_few_samples(self):
        with pytest.raises(FitError):
            fit_boosted(np.array([[1.0, 2.0, 3.0]]), np.array([1.0]))

    def test_bad_learning_rate(self):
        with pytest.raises(FitError):
            fit_boosted(grid_points(n=10), np.ones(10), learning_rate=0.0)

    def test_a_fit_checks_its_nodes_once(self, monkeypatch):
        """A fit builds no tree object per round: the whole forest's node
        set is checked once, as the ensemble it returns."""
        checked = []
        check = surrogate._check_nodes
        monkeypatch.setattr(surrogate, "_check_nodes",
                            lambda model: checked.append(type(model)) or check(model))
        model = fit_boosted(grid_points(n=40), np.arange(40.0), rounds=20)
        assert checked == [BoostedEnsemble]
        assert len(split_forest(model)) == 20


def _stub_predictor(vt=0.01, ct=0.02, latency=0.5, ranges=None):
    """Predictor built from constant models with known outputs."""
    vt_model = BoostedEnsemble(*[[]] * 5, max_depth=3, min_samples_leaf=1, base_value=vt,
                               learning_rate=0.1, train_mse=[0.0])
    ct_model = PolynomialModel(1, [ct, 0.0, 0.0, 0.0], np.zeros(3), np.ones(3))
    latency_model = RegressionTree([-1], [0.0], [-1], [latency], [1], 6, 5)
    if ranges is None:
        ranges = [[1.0, 100.0], [1.0, 1e6], [1e5, 1e8]]
    return PerformancePredictor(vt_model, ct_model, latency_model, ranges)


class TestPredictor:
    def test_f_sums_vt_and_ct(self):
        p = _stub_predictor(vt=0.01, ct=0.02)
        q = np.array([[2.0, 300.0, 1e6], [9.0, 5000.0, 3e7]])
        np.testing.assert_allclose(p.predict_f_batch(q), [0.03, 0.03])

    def test_negative_outputs_clamped(self):
        p = _stub_predictor(vt=-0.5, ct=0.02, latency=-1.0)
        q = np.array([[2.0, 300.0, 1e6]])
        np.testing.assert_allclose(p.predict_f_batch(q), [0.02])
        np.testing.assert_array_equal(p.predict_g_batch(q), [0.0])

    def test_g_single_leaf(self):
        p = _stub_predictor(latency=0.5)
        q = np.array([[7.0, 1234.0, 2e6], [1.0, 1.0, 1.0]])
        np.testing.assert_allclose(p.predict_g_batch(q), [0.5, 0.5])

    def test_extrapolation_flag(self):
        p = _stub_predictor(ranges=[[1, 10], [100, 1000], [1e6, 1e7]])
        q = np.array([[5.0, 500.0, 5e6], [50.0, 500.0, 5e6], [5.0, 50.0, 5e6],
                      [5.0, 500.0, 5e7]])
        np.testing.assert_array_equal(p.extrapolation_mask(q),
                                      [False, True, True, True])
        np.testing.assert_allclose(p.predict_g_batch(q), 0.5)

    def test_range_ends_are_not_extrapolation(self):
        """A row on the trained minimum or maximum of every feature lies in
        the training range; one ulp past the maximum does not."""
        p = _stub_predictor(ranges=[[1, 10], [100, 1000], [1e6, 1e7]])
        q = np.array([[10.0, 1000.0, 1e7], [1.0, 100.0, 1e6],
                      [10.0, 1000.0, np.nextafter(1e7, np.inf)]])
        np.testing.assert_array_equal(p.extrapolation_mask(q), [False, False, True])

    def test_purity_bit_identical(self):
        rng = np.random.default_rng(41)
        points = grid_points(rng, n=100)
        p = fit_predictor(dataset(points, 0.001 * points[:, 0], 1e-8 * points[:, 1],
                                  0.01 + 1e-7 * points[:, 1]))
        q = points[:7]
        first_f = p.predict_f_batch(q)
        first_g = p.predict_g_batch(q)
        for _ in range(3):
            np.testing.assert_array_equal(p.predict_f_batch(q), first_f)
            np.testing.assert_array_equal(p.predict_g_batch(q), first_g)

    def test_fit_deterministic(self):
        rng = np.random.default_rng(43)
        points = grid_points(rng, n=90)
        data = dataset(points, 0.002 * points[:, 0], 1e-8 * points[:, 1], 0.05)
        a = fit_predictor(data, SurrogateConfig(boost_rounds=20))
        b = fit_predictor(data, SurrogateConfig(boost_rounds=20))
        assert to_json(a) == to_json(b)

    def test_empty_dataset_rejected(self):
        with pytest.raises(FitError, match="empty"):
            fit_predictor(np.empty((0, 6)))

    def test_training_point_recall(self):
        # noiseless affine data: every family can represent it well
        rng = np.random.default_rng(47)
        points = grid_points(rng, n=200)
        vt = 0.001 * points[:, 0] + 1e-8 * points[:, 1]
        ct = 0.03 + 3e-8 * points[:, 1]
        p = fit_predictor(dataset(points, vt, ct, 0.1),
                          SurrogateConfig(boost_rounds=200, boost_tree_depth=4))
        got = p.predict_f_batch(points)
        want = vt + ct
        assert np.median(np.abs(got - want) / want) < 0.05

    def test_save_load_roundtrip(self, tmp_path):
        p = _stub_predictor()
        path = tmp_path / "model.json"
        write_json(path, to_json(p))
        clone = PerformancePredictor.load(path)
        q = np.array([[3.0, 400.0, 2e6]])
        np.testing.assert_array_equal(p.predict_f_batch(q), clone.predict_f_batch(q))
        np.testing.assert_array_equal(p.predict_g_batch(q), clone.predict_g_batch(q))

    def test_holdout_report(self):
        rng = np.random.default_rng(53)
        points = grid_points(rng, n=100)
        p = fit_predictor(dataset(points, 0.01, 0.02, 0.03),
                          SurrogateConfig(holdout_fraction=0.25))
        assert p.fit_report.n_holdout == 25
        assert p.fit_report.holdout_mse["vt"] == pytest.approx(0.0, abs=1e-12)

    def test_envelope_spans_the_train_rows(self):
        """A holdout row beyond every train row lies outside the training
        envelope, so a query there is flagged as extrapolating."""
        config = SurrogateConfig(holdout_fraction=0.25)
        rng = np.random.default_rng(61)
        points = grid_points(rng, n=40)
        points[:, 0] = rng.integers(1, 49, size=40)
        # fit_predictor's split: the first 10 of this permutation are held out
        held = np.random.default_rng(config.rng_seed).permutation(40)[0]
        points[held, 0] = 500
        p = fit_predictor(dataset(points, 0.001 * points[:, 0], 1e-8 * points[:, 1],
                                  0.01), config)
        train_max = np.delete(points[:, 0], held).max()
        assert p.fit_report.n_holdout == 10
        assert p.feature_ranges[0][1] == train_max
        query = points[[held, held]].copy()
        query[1, 0] = train_max
        assert p.extrapolation_mask(query).tolist() == [True, False]

    def test_json_round_trip(self, tmp_path):
        """A fitted predictor read back from its JSON writes the same JSON,
        and each of its models predicts as the fitted one does."""
        rng = np.random.default_rng(59)
        points = grid_points(rng, n=100)
        p = fit_predictor(dataset(points, 0.001 * points[:, 0], 1e-8 * points[:, 1],
                                  0.01 + 1e-7 * points[:, 1]),
                          SurrogateConfig(boost_rounds=10, holdout_fraction=0.2))
        path = tmp_path / "model.json"
        write_json(path, to_json(p))
        clone = PerformancePredictor.load(path)
        assert to_json(clone) == to_json(p)
        for name in ("vt_model", "ct_model", "latency_model"):
            np.testing.assert_array_equal(getattr(clone, name).predict(points),
                                          getattr(p, name).predict(points))


def training_point_recall_data():
    """The noiseless affine data of ``test_training_point_recall``, whose
    continuous features cut far more cells than it has rows."""
    rng = np.random.default_rng(47)
    points = grid_points(rng, n=200)
    vt = 0.001 * points[:, 0] + 1e-8 * points[:, 1]
    ct = 0.03 + 3e-8 * points[:, 1]
    return points, vt, ct


@pytest.fixture(scope="module")
def grid_data():
    """A simulated training grid of 7 block sizes x 3 transaction sizes x 3
    bandwidths, as a tune pipeline trains on: many rows, few distinct."""
    return generate_training_dataset(DataGrid(
        block_sizes=(5, 10, 20, 40, 60, 80, 100), tx_sizes=(768, 1024, 1280),
        bandwidths=(4.0e6, 8.0e6, 1.6e7), arrival_rate_tps=400.0, total_tx=1200,
        max_bytes=1 << 23, timeout_s=120.0, rng_seed=7))


@pytest.fixture(scope="module")
def grid_predictor(grid_data):
    return fit_predictor(grid_data)


@pytest.fixture(scope="module")
def recall_predictor():
    points, vt, ct = training_point_recall_data()
    return fit_predictor(dataset(points, vt, ct, 0.1),
                         SurrogateConfig(boost_rounds=200, boost_tree_depth=4))


def probe_rows(predictor, n_rows=50_000, seed=61):
    """Rows whose every column takes values at each threshold the forest or
    the latency tree has on it, one ulp to either side, midway between
    neighbours, beyond both ends, +-inf and NaN, drawn independently per
    column."""
    models = (predictor.vt_model, predictor.latency_model)
    feature = np.concatenate([m.feature for m in models])
    threshold = np.concatenate([m.threshold for m in models])
    rng = np.random.default_rng(seed)
    cols = []
    for f in range(3):
        edges = np.unique(threshold[feature == f])
        values = [edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                  0.5 * (edges[:-1] + edges[1:]),
                  [-np.inf, np.inf, np.nan, -1.0, 0.0, 1e12]]
        if edges.size:
            values.append([edges[0] - 1.0, edges[-1] + 1.0, 2.0 * edges[-1]])
        cols.append(rng.choice(np.concatenate(values), size=n_rows))
    return np.column_stack(cols)


def assert_answers_are_the_walks(predictor, rows):
    """f and g equal, bit for bit, what the models' own walks give."""
    with np.errstate(invalid="ignore"):  # the polynomial at +-inf
        np.testing.assert_array_equal(
            predictor.predict_f_batch(rows),
            np.maximum(predictor.vt_model.predict(rows), 0.0)
            + np.maximum(predictor.ct_model.predict(rows), 0.0))
    np.testing.assert_array_equal(
        predictor.predict_g_batch(rows),
        np.maximum(predictor.latency_model.predict(rows), 0.0))


def split_forest(model):
    """The rounds of a fitted ensemble as separate trees: a fit stores each
    round's nodes back to back, from its root up to the next round's, and
    here each is renumbered from 0."""
    left = model.left[model.feature >= 0]
    roots = np.setdiff1d(np.arange(model.feature.size), np.concatenate([left, left + 1]))
    trees = []
    for lo, hi in zip(roots, np.append(roots[1:], model.feature.size)):
        left = np.where(model.left[lo:hi] >= 0, model.left[lo:hi] - lo, -1)
        trees.append(RegressionTree(model.feature[lo:hi], model.threshold[lo:hi], left,
                                    model.value[lo:hi], model.n_samples[lo:hi],
                                    model.max_depth, model.min_samples_leaf))
    return trees


def tree_walk(tree, points):
    """The walk of one tree that the forest walk replaced: every row from
    node 0, one level per step, to ``left`` when x <= threshold and to the
    next node otherwise."""
    node = np.zeros(points.shape[0], dtype=np.int64)
    while True:
        f = tree.feature[node]
        active = f >= 0
        if not active.any():
            break
        idx = node[active]
        go_left = points[active, f[active]] <= tree.threshold[idx]
        node[active] = np.where(go_left, tree.left[idx], tree.left[idx] + 1)
    return tree.value[node]


def per_tree_predict(model, points):
    """The ensemble's answer as it was computed before the one-call walk:
    the base value plus, round by round, the learning rate times that
    round's tree walk."""
    out = np.full(points.shape[0], model.base_value)
    for tree in split_forest(model):
        out += model.learning_rate * tree_walk(tree, points)
    return out


class TestForestWalk:
    @pytest.mark.parametrize("cells, n_rows", [(None, 20_000), (1000, 2_000), (1, 300)])
    def test_one_call_is_the_per_tree_walk(self, grid_predictor, recall_predictor,
                                           monkeypatch, cells, n_rows):
        """Both models answer, bit for bit, what walking one tree at a time
        gives, on batches that cross chunk boundaries: 163 and then 81 rows
        a chunk at the default cap (100 and 200 rounds), 10 and 5 at a cap
        of 1,000 cells, and one row a chunk at a cap of one cell."""
        if cells is not None:
            monkeypatch.setattr(_kernels, "_WALK_CELLS", cells)
        for predictor in (grid_predictor, recall_predictor):
            rows = probe_rows(predictor, n_rows)
            forest = predictor.vt_model
            assert n_rows > max(1, _kernels._WALK_CELLS // len(split_forest(forest)))
            np.testing.assert_array_equal(forest.predict(rows),
                                          per_tree_predict(forest, rows))
            np.testing.assert_array_equal(predictor.latency_model.predict(rows),
                                          tree_walk(predictor.latency_model, rows))

    def test_zero_rounds_and_one_leaf(self):
        points = grid_points(n=20)
        model = fit_boosted(points, np.linspace(0.0, 2.0, 20), rounds=0)
        assert model.feature.size == 0
        np.testing.assert_array_equal(model.predict(points), per_tree_predict(model, points))
        np.testing.assert_array_equal(model.predict(np.empty((0, 3))), [])
        tree = fit_tree(points, np.full(20, 0.25))
        np.testing.assert_array_equal(tree.predict(points), np.full(20, 0.25))

    def test_rounds_are_stored_back_to_back(self, grid_predictor):
        """Each round's tree follows the last, numbered on from its nodes:
        splitting the forest at its roots gives the rounds in order, each
        one tree of the fitted depth."""
        model = grid_predictor.vt_model
        trees = split_forest(model)
        assert len(trees) == len(model.train_mse) - 1 == 100
        assert sum(t.feature.size for t in trees) == model.feature.size
        assert all(t.max_depth == 3 and t.min_samples_leaf == 1 for t in trees)
        for field in ("feature", "threshold", "value", "n_samples"):
            np.testing.assert_array_equal(
                np.concatenate([getattr(t, field) for t in trees]), getattr(model, field))


def two_round_nodes(**edits):
    """A two-round node set: round 0 splits tx_count at 5 into two leaves
    (nodes 1 and 2), and round 1 is one leaf, node 3; ``edits`` replace
    single entries, ``name=(node, value)``."""
    nodes = {"feature": [0, -1, -1, -1], "threshold": [5.0, 0.0, 0.0, 0.0],
             "left": [1, -1, -1, -1], "value": [0.5, 1.0, 2.0, 4.0], "n_samples": [4, 2, 2, 4]}
    for name, (node, value) in edits.items():
        nodes[name][node] = value
    return nodes


class TestNodeChecks:
    def test_roots_are_the_rounds(self):
        model = BoostedEnsemble(**two_round_nodes(), max_depth=1, min_samples_leaf=1,
                                base_value=0.25, learning_rate=0.5, train_mse=[1.0] * 3)
        points = np.array([[5.0, 1.0, 1.0], [6.0, 1.0, 1.0]])
        np.testing.assert_array_equal(model.predict(points),
                                      [0.25 + 0.5 * 1.0 + 0.5 * 4.0,
                                       0.25 + 0.5 * 2.0 + 0.5 * 4.0])

    @pytest.mark.parametrize("edit, message", [
        ({"left": (0, 0)}, "left: an internal node's child must lie after it"),
        ({"left": (0, -1)}, "left: an internal node's child must lie after it"),
        # its right child, left + 1, would be node 4
        ({"left": (0, 3)}, "left: an internal node's child must lie after it and below 4"),
        ({"feature": (0, 3)}, "feature: must be -1"),
        ({"n_samples": (1, 2.5)}, "n_samples: expected integers"),
        ({"threshold": (0, np.inf)}, "threshold: not finite"),
    ])
    def test_walk_must_end(self, edit, message):
        """Every internal node's children, ``left`` and ``left + 1``, lie
        after it and inside the set, so no walk loops; a node that is its
        own child, or whose right child would be past the last node, is
        rejected before any walk."""
        with pytest.raises(ConfigError, match=message):
            BoostedEnsemble(**two_round_nodes(**edit), max_depth=1, min_samples_leaf=1,
                            base_value=0.0, learning_rate=0.1, train_mse=[1.0] * 3)

    @pytest.mark.parametrize("nodes", [
        two_round_nodes(), {name: [] for name in two_round_nodes()}])
    def test_a_tree_has_one_root(self, nodes):
        with pytest.raises(ConfigError, match="a tree has one root, node 0"):
            RegressionTree(**nodes, max_depth=1, min_samples_leaf=1)


@pytest.fixture
def tables(monkeypatch):
    """What every ``_kernels.tabulate`` call made during the test returned:
    a cell table, or None for a model left to its walk."""
    made = []
    tabulate = _kernels.tabulate

    def recording(*args):
        made.append(tabulate(*args))
        return made[-1]

    monkeypatch.setattr(_kernels, "tabulate", recording)
    return made


def node_rows(tree, points):
    """Node -> the indices, in row order, of the rows of ``points`` that the
    tree routes through it."""
    reached = {0: np.arange(points.shape[0])}
    for node in range(tree.feature.size):
        if tree.feature[node] >= 0:
            rows = reached[node]
            go_left = points[rows, tree.feature[node]] <= tree.threshold[node]
            reached[tree.left[node]] = rows[go_left]
            reached[tree.left[node] + 1] = rows[~go_left]
    return reached


def group_rows(points):
    """The distinct rows of ``points`` (n, 3) in lexicographic order, each
    row's group and each group's row count, as the fits group them."""
    first, inverse, counts = _kernels.group_rows(*points.T)
    return points[first], inverse, counts


def assert_values_are_group_sums(tree, points, targets, sums):
    """Every node stores the sum, in group order, of the target sums
    ``sums`` of the distinct rows routed to it, divided by the count of rows
    routed to it, bit for bit, and counts those rows. That value is within
    1e-12 of ``ndarray.mean`` of the rows' ``targets``, relative to the
    largest target: a boosting round's root holds residuals that average
    to about zero, so no relative bound on the mean itself could hold."""
    unique, _, counts = group_rows(points)
    groups, rows = node_rows(tree, unique), node_rows(tree, points)
    assert sorted(rows) == list(range(tree.feature.size))
    scale = np.abs(targets).max()
    for node, members in groups.items():
        assert tree.n_samples[node] == rows[node].size == counts[members].sum()
        assert tree.value[node] == np.cumsum(sums[members])[-1] / rows[node].size
        assert abs(tree.value[node] - targets[rows[node]].mean()) <= 1e-12 * scale


class TestGroupedFit:
    @pytest.mark.parametrize("holdout", [0.0, 0.2])
    def test_views_fit_as_their_contiguous_copy(self, grid_data, holdout):
        """A dataset given as a strided or column-major view of other memory
        stores the models, envelope and report its contiguous copy stores,
        bit for bit, with or without a holdout, and the fit writes nothing
        into the caller's array."""
        config = SurrogateConfig(boost_rounds=10, holdout_fraction=holdout)
        want = json.dumps(to_json(fit_predictor(grid_data.copy(), config)))
        wide = np.zeros((2 * grid_data.shape[0], 8))
        wide[::2, 1:7] = grid_data
        for view in (wide[::2, 1:7], np.asfortranarray(grid_data)):
            assert not view.flags.c_contiguous
            before = view.copy()
            assert json.dumps(to_json(fit_predictor(view, config))) == want
            assert np.array_equal(view, before)
            assert json.dumps(to_json(fit_predictor(np.ascontiguousarray(view),
                                                    config))) == want

    def test_node_values_are_group_sums(self, grid_data, grid_predictor):
        """The latency tree's distinct rows carry their targets' row-order
        sums. A boosting round's carry the residual sums: the round-0
        residuals' row-order sums, less each later round's step times the
        row count. The training MSE is the rows' own."""
        points, vt, lat = grid_data[:, :3], grid_data[:, 3], grid_data[:, 5]
        unique, inverse, counts = group_rows(points)
        assert unique.shape[0] < points.shape[0] // 10
        assert_values_are_group_sums(grid_predictor.latency_model, points, lat,
                                     np.bincount(inverse, weights=lat))
        model = grid_predictor.vt_model
        residuals = vt - model.base_value
        sums = np.bincount(inverse, weights=residuals)
        for tree in split_forest(model):
            assert_values_are_group_sums(tree, points, residuals, sums)
            step = model.learning_rate * tree.predict(unique)
            residuals = residuals - model.learning_rate * tree.predict(points)
            sums = sums - counts * step
        assert model.train_mse[-1] == np.mean(residuals ** 2)


def reference_split(x, counts, sums, sum_sq, min_samples_leaf):
    """The per-node split search the level kernel replaced: one node's
    groups sorted per feature, gains from their prefix sums, gains within
    TIE_RTOL * sum_sq of the best tied to the lowest feature, then the
    lowest threshold. Returns (feature, threshold, gain), feature -1 when
    no admissible split has a positive gain."""
    n = counts.sum()
    total = sums.sum()
    order = np.argsort(x, axis=0, kind="stable")
    xs = np.take_along_axis(x, order, axis=0)
    left_n = np.cumsum(counts[order], axis=0)[:-1]
    left_s = np.cumsum(sums[order], axis=0)[:-1]
    right_n, right_s = n - left_n, total - left_s
    gain = (left_s * left_s / left_n + right_s * right_s / right_n
            - total * total / n)
    valid = ((xs[:-1] < xs[1:]) & (left_n >= min_samples_leaf)
             & (right_n >= min_samples_leaf))
    gain = np.where(valid, gain, -np.inf).T.ravel()
    if not (gain.size and gain.max() > 0):
        return -1, 0.0, 0.0
    j = int(np.argmax(gain >= gain.max() - _kernels.TIE_RTOL * sum_sq))
    f, k = divmod(j, xs.shape[0] - 1)
    return f, float(0.5 * (xs[k, f] + xs[k + 1, f])), float(gain[j])


def reference_tree(points, targets, max_depth, min_samples_leaf):
    """The recursive grower the level-wise one replaced: one call per node,
    depth first, each node gathering its rows, storing their
    ``ndarray.mean`` and searching its own groups with
    :func:`reference_split`. Its nodes are numbered depth first, so a right
    child does not follow its sibling: it returns its own node arrays, with
    ``right``."""
    unique, inverse, counts = group_rows(points)
    sums = np.bincount(inverse, weights=targets, minlength=counts.size)
    feature, threshold, left, right, value, n_samples = [], [], [], [], [], []

    def build(idx, members, depth):
        node = len(feature)
        sub = targets[idx]
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(float(sub.mean()))
        n_samples.append(idx.size)
        if depth >= max_depth or idx.size < 2 or idx.size < 2 * min_samples_leaf:
            return node
        f, thr, gain = reference_split(unique[members], counts[members],
                                       sums[members], float(sub @ sub),
                                       min_samples_leaf)
        if f < 0 or gain <= _GAIN_EPS:
            return node
        mask = points[idx, f] <= thr
        to_left = unique[members, f] <= thr
        left_id = build(idx[mask], members[to_left], depth + 1)
        right_id = build(idx[~mask], members[~to_left], depth + 1)
        feature[node], threshold[node] = f, thr
        left[node], right[node] = left_id, right_id
        return node

    build(np.arange(points.shape[0]), np.arange(counts.size), 0)
    return types.SimpleNamespace(feature=feature, threshold=threshold, left=left,
                                 right=right, value=value, n_samples=n_samples)


def assert_same_tree(got, want, atol, node=0, want_node=0):
    """The fitted tree ``got`` and the :func:`reference_tree` ``want`` split
    alike from these nodes down, with equal row counts, whatever their node
    numbering; values agree within 1e-12 relative or ``atol``."""
    assert got.feature[node] == want.feature[want_node]
    assert got.n_samples[node] == want.n_samples[want_node]
    assert np.isclose(got.value[node], want.value[want_node], rtol=1e-12, atol=atol)
    if want.feature[want_node] >= 0:
        assert got.threshold[node] == want.threshold[want_node]
        assert_same_tree(got, want, atol, got.left[node], want.left[want_node])
        assert_same_tree(got, want, atol, got.left[node] + 1, want.right[want_node])


@st.composite
def grouped_dataset(draw):
    """Rows of up to 12 distinct feature rows on a small grid, so feature
    values tie across rows, each repeated 1-5 times in shuffled order, with
    targets from a small set whose sums round."""
    n_groups = draw(st.integers(1, 12))
    distinct = draw(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=n_groups,
                             max_size=n_groups, unique=True))
    repeats = draw(st.lists(st.integers(1, 5), min_size=n_groups, max_size=n_groups))
    points = np.repeat(np.array(distinct, dtype=np.float64), repeats, axis=0)
    targets = np.array(draw(st.lists(
        st.sampled_from([-2.0, 0.0, 0.1, 0.3, 0.7, 1.0, 3.5]),
        min_size=len(points), max_size=len(points))))
    order = np.array(draw(st.permutations(range(len(points)))), dtype=np.int64)
    return points[order], targets[order]


def repeated(columns, repeats=(1, 3, 2, 1, 2, 2, 3, 1)):
    """A :func:`grouped_dataset` case of the distinct rows of ``columns``,
    each repeated, with targets that differ from row to row."""
    points = np.column_stack(columns).astype(np.float64)
    points = np.repeat(points, repeats[:points.shape[0]], axis=0)
    return points, np.cos(np.arange(points.shape[0]) * 2.3) * 3.0


COUNT = np.array([1, 2, 3, 4, 5, 2, 4, 5])
OTHER = np.array([0, 0, 0, 1, 1, 1, 2, 2])


@settings(max_examples=400, deadline=None)
@given(grouped_dataset(), st.integers(0, 6), st.integers(1, 5),
       st.sampled_from([1, 1 << 20]))
# block_bytes a multiple of tx_count, as on a grid of one tx size, leaves
# the plan tx_count and the other feature
@example(case=repeated([COUNT, 3 * COUNT, OTHER]), max_depth=3, min_samples_leaf=1,
         cells=1 << 20)
# one bandwidth: a constant feature
@example(case=repeated([COUNT, OTHER, np.full(8, 7)]), max_depth=4, min_samples_leaf=2,
         cells=1)
# tx_count reversed gives the same partitions, found in the opposite order
@example(case=repeated([COUNT, 10 - COUNT, OTHER]), max_depth=3, min_samples_leaf=1,
         cells=1)
# The root's admissible cuts count the rows in each feature's own order: on
# the last feature, the 1-valued group of two rows sorts after the
# 0-valued one, not where group order puts it.
@example(case=(np.array([[0.0, 0, 0], [0, 0, 1], [0, 0, 2], [0, 0, 3], [0, 1, 1], [0, 1, 1]]),
               np.array([-2.0, -2, -2, -2, -2, 0])),
         max_depth=1, min_samples_leaf=3, cells=1)
# a feature cut at tx_count's positions in another order can still win
@example(case=repeated([np.arange(8), [5, 0, 7, 3, 1, 6, 2, 4], np.zeros(8)],
                       repeats=(1,) * 8),
         max_depth=2, min_samples_leaf=1, cells=1 << 20)
# The root's only candidate split leaves one row on its left, fewer than
# min_samples_leaf, so the root stays a leaf.
@example(case=(np.array([[0.0, 0, 0], [1, 0, 0], [1, 0, 0], [1, 0, 0]]),
               np.array([3.5, 0.0, 0.0, 0.0])),
         max_depth=1, min_samples_leaf=2, cells=1 << 20)
# The root splits off the 0 row, a depth-1 node too small to search, so its
# one-node pass of the level kernel holds no group.
@example(case=(np.array([[0.0, 0, 0], [10, 0, 0], [11, 0, 0]]),
               np.array([0.0, 10.0, 12.0])),
         max_depth=2, min_samples_leaf=1, cells=1)
def test_level_grower_matches_recursive_reference(case, max_depth, min_samples_leaf,
                                                  cells):
    """Growing a tree a level at a time splits every node as the recursive
    per-node grower does, with the same row counts, and its group-sum
    values agree with that grower's row means; a boosted tree too. So it
    does when each pass of the level kernel holds one node."""
    points, targets = case
    atol = 1e-12 * np.abs(targets).max()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_kernels, "_LEVEL_CELLS", cells)
        tree = fit_tree(points, targets, max_depth, min_samples_leaf)
        model = fit_boosted(points, targets, rounds=1, learning_rate=1.0,
                            tree_depth=max_depth, min_samples_leaf=min_samples_leaf
                            ) if points.shape[0] >= 2 else None
    assert_same_tree(tree, reference_tree(points, targets, max_depth, min_samples_leaf),
                     atol)
    if model is not None:
        want = reference_tree(points, targets - targets.mean(), max_depth,
                              min_samples_leaf)
        assert_same_tree(split_forest(model)[0], want, atol)


class TestCellTable:
    def test_two_tables_per_fit_and_per_load(self, grid_data, tables):
        """The predictor tabulates the forest and the latency tree, once
        each, when it is fitted and again when it is loaded; no member
        tree of the forest builds a table of its own."""
        predictor = fit_predictor(grid_data, SurrogateConfig(boost_rounds=10))
        assert len(tables) == 2
        build_config(PerformancePredictor, to_json(predictor), "model")
        assert len(tables) == 4
        for table in tables:
            assert table is not None
            assert table[1].size <= predictor.fit_report.n_train

    def test_grid_answers_are_the_walks(self, grid_predictor):
        assert_answers_are_the_walks(grid_predictor, probe_rows(grid_predictor))

    def test_continuous_data_keeps_the_walk(self, recall_predictor, tables):
        """The continuous features cut more cells than the forest had rows,
        so the loaded forest is not tabulated; the one-leaf latency tree
        is."""
        clone = build_config(PerformancePredictor, to_json(recall_predictor), "model")
        assert recall_predictor.latency_model.feature.size == 1  # a constant target
        assert len(tables) == 2
        assert tables[0] is None and tables[1] is not None
        rows = probe_rows(recall_predictor, n_rows=5_000)
        assert_answers_are_the_walks(recall_predictor, rows)
        assert_answers_are_the_walks(clone, rows)

    def test_stored_model_predicts_identically(self, grid_predictor, tmp_path):
        path = tmp_path / "model.json"
        write_json(path, to_json(grid_predictor))
        clone = PerformancePredictor.load(path)
        rows = probe_rows(grid_predictor)
        with np.errstate(invalid="ignore"):  # the polynomial at +-inf
            np.testing.assert_array_equal(clone.predict_f_batch(rows),
                                          grid_predictor.predict_f_batch(rows))
        np.testing.assert_array_equal(clone.predict_g_batch(rows),
                                      grid_predictor.predict_g_batch(rows))


@pytest.fixture(scope="module", params=["grid_predictor", "recall_predictor"])
def any_predictor(request):
    """A predictor with both models tabulated (the grid fit), or one whose
    forest answers with its walk (the continuous fit)."""
    return request.getfixturevalue(request.param)


@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_answers_do_not_depend_on_row_layout(any_predictor, data):
    """f, g and the extrapolation mask are bit for bit the same on C- and
    F-ordered copies of the same rows, inside and outside the training
    envelope; a GA prices column-major rows."""
    columns = [st.sampled_from([lo, hi]) | st.floats(2 * lo - hi - 1, 2 * hi - lo + 1)
               for lo, hi in any_predictor.feature_ranges]
    rows = np.array(data.draw(st.lists(st.tuples(*columns), min_size=2, max_size=100)))
    by_row, by_column = np.ascontiguousarray(rows), np.asfortranarray(rows)
    assert not by_column.flags.c_contiguous
    for answer in (any_predictor.predict_f_batch, any_predictor.predict_g_batch,
                   any_predictor.extrapolation_mask):
        np.testing.assert_array_equal(answer(by_column), answer(by_row))


@pytest.fixture(scope="module")
def stored_model():
    points, vt, ct = training_point_recall_data()
    p = fit_predictor(dataset(points, vt, ct, 0.1 + 0.001 * points[:, 0]),
                      SurrogateConfig(boost_rounds=3))
    return json.dumps(to_json(p))


def child_before_parent(d):
    """Point the forest's last internal node's left child back at the node
    before it."""
    forest = d["vt_model"]
    node = max(i for i, f in enumerate(forest["feature"]) if f >= 0)
    forest["left"][node] = node - 1


def point_at_last_node(d):
    """Point the forest's first node's left child at its last node, so its
    right child would lie past the end."""
    forest = d["vt_model"]
    forest["left"][0] = len(forest["left"]) - 1


def swap_models(d):
    d["vt_model"], d["latency_model"] = d["latency_model"], d["vt_model"]


def second_root(d):
    """Append a leaf that no node points to: a second root."""
    tree = d["latency_model"]
    for name, value in (("feature", -1), ("threshold", 0.0), ("left", -1),
                        ("value", 0.1), ("n_samples", 1)):
        tree[name].append(value)


class TestStoredModelChecks:
    @pytest.mark.parametrize("mutation, message", [
        (lambda d: d["vt_model"].pop("value"), "vt_model: missing required key 'value'"),
        (lambda d: d["vt_model"].pop("max_depth"),
         "vt_model: missing required key 'max_depth'"),
        (lambda d: d.pop("latency_model"), "missing required key 'latency_model'"),
        (lambda d: d["ct_model"].pop("coefficients"), "ct_model: missing required key"),
        (lambda d: d["latency_model"]["left"].pop(), "latency_model: left"),
        (lambda d: d["latency_model"]["feature"].__setitem__(0, 3),
         "latency_model: feature"),
        (point_at_last_node,
         "vt_model: left: an internal node's child must lie after it and below"),
        (child_before_parent,
         "vt_model: left: an internal node's child must lie after it"),
        (second_root, "latency_model: a tree has one root, node 0, not"),
        (lambda d: d["latency_model"]["threshold"].__setitem__(0, float("inf")),
         "latency_model: threshold: not finite"),
        (lambda d: d["vt_model"]["threshold"].__setitem__(0, float("nan")),
         r"vt_model\.threshold\[0\] must be a number, got nan"),
        (lambda d: d["vt_model"]["value"].__setitem__(1, float("-inf")),
         "vt_model: value: not finite"),
        (lambda d: d["vt_model"]["left"].__setitem__(0, 1.5),
         "vt_model: left: expected integers"),
        (lambda d: d["latency_model"]["left"].__setitem__(0, 0.5),
         "latency_model: left: expected integers"),
        # Each of these ran, or died in a traceback, before the model
        # classes were read by the config reader.
        (lambda d: d["ct_model"]["coefficients"].pop(), "ct_model: coefficients"),
        (lambda d: d["ct_model"].__setitem__("feature_mean", [0.0, 0.0]),
         "ct_model: feature_mean"),
        (lambda d: d["vt_model"].__setitem__("base_value", "x"),
         r"vt_model\.base_value must be a number"),
        (lambda d: d["vt_model"].__setitem__("learning_rate", "x"),
         r"vt_model\.learning_rate must be a number"),
        (lambda d: d.__setitem__("feature_ranges", [[0, 1]]),
         r"feature_ranges: expected 3 \[low, high\] pairs, got 1"),
        (lambda d: d["ct_model"]["feature_scale"].__setitem__(0, 0),
         "ct_model: feature_scale"),
        (lambda d: d["vt_model"].__setitem__("depth", 3), "vt_model: unknown key 'depth'"),
        # a model stored under the other's key: the forest's keys are a
        # tree's plus its base value, learning rate and MSE trace
        (swap_models, "vt_model: missing required key 'base_value'"),
        (lambda d: d.__setitem__("latency_model", d["vt_model"]),
         "latency_model: unknown key 'base_value'"),
    ])
    def test_rejected_naming_model_and_key(self, stored_model, tmp_path, mutation,
                                           message):
        d = json.loads(stored_model)
        # both models split at node 0, and the forest has fewer than 99 nodes
        assert d["latency_model"]["feature"][0] >= 0
        assert d["vt_model"]["feature"][0] >= 0 and len(d["vt_model"]["feature"]) < 99
        mutation(d)
        path = tmp_path / "model.json"
        # json.dumps, not write_json: the writer refuses NaN and infinities
        path.write_text(json.dumps(d), encoding="utf-8")
        with pytest.raises(DatasetError, match=message):
            PerformancePredictor.load(path)

    def test_invalid_json_is_dataset_error(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{", encoding="utf-8")
        with pytest.raises(DatasetError, match="invalid JSON"):
            PerformancePredictor.load(path)


class TestDatasetIO:
    def test_three_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("tx_count,block_bytes,bandwidth,vt_s,ct_s,latency_s\n"
                        "5,1000,1e6,0.01,0.02,0.1\n"
                        "10,2000,2e6,0.02,0.03,0.2\n"
                        "1,100,5e5,0.001,0.002,0.01\n")
        data = load_dataset(path)
        np.testing.assert_array_equal(data, [[5, 1000, 1e6, 0.01, 0.02, 0.1],
                                             [10, 2000, 2e6, 0.02, 0.03, 0.2],
                                             [1, 100, 5e5, 0.001, 0.002, 0.01]])
        assert data.dtype == np.float64

    def test_zero_bandwidth_names_row(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("tx_count,block_bytes,bandwidth,vt_s,ct_s,latency_s\n"
                        "5,1000,1e6,0.01,0.02,0.1\n"
                        "5,1000,0,0.01,0.02,0.1\n")
        with pytest.raises(DatasetError, match="line 3.*bandwidth"):
            load_dataset(path)

    def test_negative_target_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("tx_count,block_bytes,bandwidth,vt_s,ct_s,latency_s\n"
                        "5,1000,1e6,-0.01,0.02,0.1\n")
        with pytest.raises(DatasetError, match="line 2.*vt_s"):
            load_dataset(path)

    def test_malformed_cell_cites_row_and_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("tx_count,block_bytes,bandwidth,vt_s,ct_s,latency_s\n"
                        "5,1000,1e6,0.01,oops,0.1\n")
        with pytest.raises(DatasetError, match="line 2.*ct_s"):
            load_dataset(path)

    @pytest.mark.parametrize("row, column", [("nan,1000,1e6,0.01,0.02,0.1", "tx_count"),
                                             ("5,inf,1e6,0.01,0.02,0.1", "block_bytes"),
                                             ("5,1000,1e6,0.01,0.02,-inf", "latency_s")])
    def test_non_finite_cell_rejected(self, tmp_path, row, column):
        path = tmp_path / "d.csv"
        path.write_text("tx_count,block_bytes,bandwidth,vt_s,ct_s,latency_s\n"
                        f"{row}\n")
        with pytest.raises(DatasetError, match=f"line 2.*{column}"):
            load_dataset(path)

    def test_fractional_block_bytes_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("tx_count,block_bytes,bandwidth,vt_s,ct_s,latency_s\n"
                        "5,1000.5,1e6,0.01,0.02,0.1\n")
        with pytest.raises(DatasetError, match="line 2.*block_bytes"):
            load_dataset(path)

    def test_wrong_header(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DatasetError, match="line 1"):
            load_dataset(path)

    def test_roundtrip_lossless(self, tmp_path):
        rng = np.random.default_rng(59)
        data = np.column_stack([rng.integers(1, 100, 25), rng.integers(1, 10**6, 25),
                                rng.uniform(1e5, 1e8, 25), rng.uniform(0, 1, (25, 2)),
                                rng.uniform(0, 5, 25)]).astype(np.float64)
        path = tmp_path / "d.csv"
        save_dataset(data, path)
        assert np.array_equal(load_dataset(path), data)

    # Each example overwrites the same file, so sharing tmp_path is safe.
    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(rows=st.lists(st.tuples(
        # counts and bytes are exact in a float64 up to 2**53
        st.integers(1, 2**53), st.integers(1, 2**53),
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        *[st.floats(min_value=0.0, allow_infinity=False)] * 3), max_size=8))
    def test_roundtrip_any_valid_rows(self, tmp_path, rows):
        """Any finite row the loader accepts comes back bit for bit: positive
        integer counts and bytes, a positive bandwidth, non-negative targets."""
        data = np.array(rows, dtype=np.float64).reshape(-1, 6)
        path = tmp_path / "d.csv"
        save_dataset(data, path)
        loaded = load_dataset(path)
        assert loaded.shape == data.shape
        assert loaded.tobytes() == data.tobytes()
