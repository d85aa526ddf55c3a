import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fwave.evaluate
import fwave.pipeline
from fwave.errors import ConfigError, FormatError
from fwave.evaluate import (
    ClassifierMetrics,
    FeatureTable,
    RandomForestModel,
    auroc_rank,
    bootstrap_draws,
    evaluate_model,
    predict_proba,
    rank_methods,
    stratified_split,
    train_rf,
)
from fwave.pipeline import PipelineConfig, stage_eval

WELCH_BIN_HZ = 200.0 / 8192  # DAF grid of the default 10 s Welch segments


# Oracles for the forest. _grow_tree grows one tree by recursion, one
# node per call, with a prefix-sum sweep per node; _train_rf_reference
# averages such trees over train_rf's bootstrap samples into the step
# function. fwave.evaluate.train_rf, which grows all trees together
# level by level, must build the same forest bit for bit.
# _grow_tree_reference is the oracle of _grow_tree's split search: a scan
# that masks both sides of every threshold and scores each with _gini.
def _grow_tree(x, y, depth, max_depth):
    """A tree as its in-order lists (thresholds, leaves): a value takes
    the leaf indexed by the count of thresholds below it, as it goes left
    at every threshold it does not exceed. Leaves are float AF fractions."""
    if depth >= max_depth or len(np.unique(y)) == 1:
        return [], [float(np.mean(y))]
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    uniq = np.unique(xs)
    if len(uniq) < 2:
        return [], [float(np.mean(y))]
    # the split after uniq[i] puts every row <= uniq[i] on the left, a
    # prefix of the sorted rows: row 0 of n and k holds the left sizes
    # and AF counts, row 1 the right
    total = len(ys)
    nl = np.searchsorted(xs, uniq[:-1], side="right")
    af_left = np.concatenate(([0], np.cumsum(ys)))[nl]
    n = np.array([nl, total - nl])
    k = np.array([af_left, ys.sum() - af_left])
    p = k / np.maximum(n, 1)  # an empty side has Gini 0
    g = 2.0 * p * (1.0 - p)
    scores = (n[0] * g[0] + n[1] * g[1]) / total
    best = None  # move on only to a score lower by more than 1e-15
    for i, score in enumerate(scores.tolist()):
        if best is None or score < best - 1e-15:
            best, best_i = score, i
    lo, hi = uniq[best_i], uniq[best_i + 1]
    thr = (lo + hi) / 2.0
    if not thr < hi:  # the midpoint of two adjacent floats rounded up
        thr = lo
    n_left = nl[best_i]
    left_thr, left_leaves = _grow_tree(xs[:n_left], ys[:n_left], depth + 1, max_depth)
    right_thr, right_leaves = _grow_tree(xs[n_left:], ys[n_left:], depth + 1, max_depth)
    return left_thr + [float(thr)] + right_thr, left_leaves + right_leaves


def _train_rf_reference(table, method, n_trees=100, max_depth=4, rng_seed=0):
    """train_rf with one _grow_tree per bootstrap sample: the same draws,
    and the same additions in tree order."""
    x, y, _ = table.select(method=method, split="train")
    if len(np.unique(x)) == 1:
        return RandomForestModel(np.empty(0), np.array([np.mean(y)]), method, len(x))
    trees = []
    for seq in np.random.SeedSequence(rng_seed).spawn(n_trees):
        idx = np.random.default_rng(seq).integers(0, len(x), size=len(x))
        trees.append(_grow_tree(x[idx], y[idx], 0, max_depth))
    breaks = np.unique(np.concatenate([thr for thr, _ in trees]))
    points = np.append(breaks, np.inf)
    total = np.zeros(len(points))
    for thr, leaves in trees:
        total += np.array(leaves)[np.searchsorted(thr, points)]
    return RandomForestModel(breaks, total / n_trees, method, len(x))


def _assert_same_forest(model, reference):
    assert model.breaks.tobytes() == reference.breaks.tobytes()
    assert model.probs.tobytes() == reference.probs.tobytes()


def _train(table, method, n_trees=100, max_depth=4, rng_seed=0):
    """train_rf with the bootstraps of the method's training rows drawn
    from ``rng_seed``, as stage_eval draws them."""
    n = len(table.select(method=method, split="train")[0])
    return train_rf(table, method, bootstrap_draws(n, n_trees, rng_seed), max_depth)


def _bootstrap_keys_loop(row_bin, x, n_trees, rng_seed):
    """The per-tree draw loop _bootstrap_counts ran before bootstrap_draws,
    verbatim: each tree's bootstrap sample of ``row_bin``."""
    keys = np.empty((n_trees, len(x)), dtype=np.int64)
    for t, seq in enumerate(np.random.SeedSequence(rng_seed).spawn(n_trees)):
        keys[t] = row_bin[np.random.default_rng(seq).integers(0, len(x), size=len(x))]
    return keys


def _reference_trainer(rng_seed):
    """_train_rf_reference in train_rf's place in stage_eval: every call
    draws its own bootstraps from ``rng_seed``, tree by tree."""
    def train(table, method, draws, max_depth):
        return _train_rf_reference(table, method, len(draws), max_depth, rng_seed)
    return train


def _train_table(x, y):
    """Every row a training row of method "vote"."""
    return FeatureTable([f"w{i:03d}" for i in range(len(x))], ["vote"] * len(x), list(x),
                        ["AF" if v else "non-AF" for v in y], ["train"] * len(x))


def _scan_in_order(scores):
    """_grow_tree's pick among one node's split scores."""
    best = None
    for i, score in enumerate(scores):
        if best is None or score < best - 1e-15:
            best, best_i = score, i
    return best_i


def _no_ulp_pair(x):
    """No two adjacent feature values have a midpoint that rounds onto
    the upper one. _grow_tree_reference splits such a pair at that
    midpoint and grows a nan leaf, where _grow_tree splits at the lower
    value (see test_adjacent_floats_split_without_nan)."""
    u = np.unique(x)
    return bool(np.all((u[:-1] + u[1:]) / 2.0 < u[1:]))


def _grow_tree_reference(x, y, depth, max_depth, rng=None):
    """Nodes are (threshold, left, right); leaves are float AF fractions."""
    if depth >= max_depth or len(np.unique(y)) == 1:
        return float(np.mean(y))
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    uniq = np.unique(xs)
    if len(uniq) < 2:
        return float(np.mean(y))
    thresholds = (uniq[:-1] + uniq[1:]) / 2.0
    best, best_thr = None, None
    total = len(ys)
    for thr in thresholds:
        left = ys[xs <= thr]
        right = ys[xs > thr]
        gl = _gini(left)
        gr = _gini(right)
        score = (len(left) * gl + len(right) * gr) / total
        if best is None or score < best - 1e-15:
            best, best_thr = score, thr
    mask = x <= best_thr
    return (
        float(best_thr),
        _grow_tree_reference(x[mask], y[mask], depth + 1, max_depth, rng),
        _grow_tree_reference(x[~mask], y[~mask], depth + 1, max_depth, rng),
    )


def _gini(y):
    if len(y) == 0:
        return 0.0
    p = float(np.mean(y))
    return 2.0 * p * (1.0 - p)


def _steps(tree):
    """A nested (threshold, left, right) tree as the in-order
    (thresholds, leaves) lists that _grow_tree returns."""
    if not isinstance(tree, tuple):
        return [], [tree]
    thr, left, right = tree
    left_thr, left_leaves = _steps(left)
    right_thr, right_leaves = _steps(right)
    return left_thr + [thr] + right_thr, left_leaves + right_leaves


def _reference_forest(table, method, n_trees=100, max_depth=4, rng_seed=0):
    """The nested trees _grow_tree_reference grows on train_rf's bootstrap
    samples."""
    x, y, _ = table.select(method=method, split="train")
    trees = []
    for seq in np.random.SeedSequence(rng_seed).spawn(n_trees):
        idx = np.random.default_rng(seq).integers(0, len(x), size=len(x))
        trees.append(_grow_tree_reference(x[idx], y[idx], 0, max_depth))
    return trees


def _predict_reference(trees, x):
    """One walk from the root per (tree, value), summed in tree order."""
    out = np.zeros(len(x))
    for tree in trees:
        values = []
        for v in x:
            node = tree
            while isinstance(node, tuple):
                thr, left, right = node
                node = left if v <= thr else right
            values.append(node)
        out += values
    return out / len(trees)


@st.composite
def _tree_inputs(draw):
    """A feature vector (continuous, on the Welch grid, a handful of
    repeated values, small integers, a single value, or floats one ulp
    apart), 0/1 labels and a depth limit."""
    n = draw(st.integers(2, 250))
    kind = draw(st.sampled_from(["continuous", "welch", "repeated", "integer", "single", "ulp"]))
    if kind == "continuous":
        x = draw(st.lists(st.floats(4.0, 12.0), min_size=n, max_size=n))
    elif kind == "welch":
        bins = draw(st.lists(st.integers(164, 492), min_size=n, max_size=n))
        x = [k * WELCH_BIN_HZ for k in bins]
    elif kind == "integer":
        x = draw(st.lists(st.integers(4, 12).map(float), min_size=n, max_size=n))
    elif kind == "single":
        x = [draw(st.floats(4.0, 12.0))] * n
    elif kind == "ulp":
        pool = [draw(st.floats(4.0, 12.0))]
        for _ in range(draw(st.integers(1, 3))):
            pool.append(float(np.nextafter(pool[-1], np.inf)))
        x = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    else:
        pool = draw(st.lists(st.floats(4.0, 12.0).map(lambda v: round(v, 6)),
                             min_size=1, max_size=5))
        x = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    return np.array(x, dtype=np.float64), np.array(y), draw(st.integers(1, 6))


def _eval_table(seed, n_windows=200):
    """Four methods per window, DAF on the Welch grid, outliers per method."""
    rng = np.random.default_rng(seed)
    t = FeatureTable.empty()
    for i in range(n_windows):
        af = i % 2 == 0
        base = rng.uniform(4.5, 11.0) if af else rng.uniform(4.0, 12.0)
        for m, outlier_rate in (("TS_B", 0.1), ("TS_CE", 0.08), ("TS_SU", 0.12), ("TS_PCA", 0.25)):
            if rng.random() < outlier_rate:
                daf = rng.uniform(4.0, 12.0)
            else:
                daf = np.clip(base + rng.normal(0.0, 0.05 if af else 0.5), 4.0, 12.0)
            t.append(f"win{i:04d}", m, round(daf / WELCH_BIN_HZ) * WELCH_BIN_HZ,
                     "AF" if af else "non-AF")
    return t


def _table(daf_af, daf_nonaf, method="vote"):
    t = FeatureTable.empty()
    for i, d in enumerate(daf_af):
        t.append(f"af{i:03d}", method, d, "AF")
    for i, d in enumerate(daf_nonaf):
        t.append(f"ns{i:03d}", method, d, "non-AF")
    return t


class TestStratifiedSplit:
    def test_balanced_80_20(self):
        rng = np.random.default_rng(0)
        t = _table(rng.uniform(5, 8, 100), rng.uniform(9, 11, 100))
        out = stratified_split(t, rng_seed=1)
        counts = {}
        for wid, _, _, lab, spl in out.rows():
            counts[(lab, spl)] = counts.get((lab, spl), 0) + 1
        assert counts[("AF", "train")] == 80
        assert counts[("non-AF", "train")] == 80
        assert counts[("AF", "test")] == 20
        assert counts[("non-AF", "test")] == 20

    def test_downsamples_majority(self):
        rng = np.random.default_rng(0)
        t = _table(rng.uniform(5, 8, 100), rng.uniform(9, 11, 60))
        out = stratified_split(t, rng_seed=1)
        counts = {}
        for _, _, _, lab, spl in out.rows():
            counts[(lab, spl)] = counts.get((lab, spl), 0) + 1
        assert counts[("AF", "train")] == 48
        assert counts[("non-AF", "train")] == 48
        assert counts[("AF", "test")] == 52
        assert counts[("non-AF", "test")] == 12

    def test_all_methods_share_window_split(self):
        rng = np.random.default_rng(0)
        t = FeatureTable.empty()
        for i in range(20):
            lab = "AF" if i < 10 else "non-AF"
            for m in ("TS_B", "TS_CE"):
                t.append(f"w{i:03d}", m, rng.uniform(4, 12), lab)
        out = stratified_split(t, rng_seed=2)
        per_window = {}
        for wid, _, _, _, spl in out.rows():
            per_window.setdefault(wid, set()).add(spl)
        assert all(len(s) == 1 for s in per_window.values())

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        t = _table(rng.uniform(5, 8, 30), rng.uniform(9, 11, 30))
        a = stratified_split(t, rng_seed=9)
        b = stratified_split(t, rng_seed=9)
        assert a.split == b.split

    def test_small_class_rejected(self):
        t = _table([6.0] * 4, [10.0] * 20)
        with pytest.raises(ConfigError, match="4"):
            stratified_split(t)

    def test_conflicting_labels_rejected(self):
        t = FeatureTable(["w0", "w0"], ["TS_B", "TS_CE"], [6.0, 6.0],
                         ["AF", "non-AF"])
        with pytest.raises(ConfigError, match="conflicting"):
            stratified_split(t)


class TestRandomForest:
    def test_separable_classes_perfect_auroc(self):
        rng = np.random.default_rng(1)
        t = _table(rng.uniform(5.5, 7.5, 50), rng.uniform(9, 11, 50))
        t = stratified_split(t, rng_seed=0)
        model = _train(t, "vote", rng_seed=0)
        m = evaluate_model(model, t)
        assert m.auroc == pytest.approx(1.0)
        assert m.f1 == pytest.approx(1.0)

    def test_permuted_labels_auroc_near_half(self):
        rng = np.random.default_rng(2)
        aurocs = []
        for seed in range(20):
            daf = rng.uniform(4, 12, 60)
            labs = np.array(["AF"] * 30 + ["non-AF"] * 30)
            rng.shuffle(labs)
            t = FeatureTable.empty()
            for i, (d, lab) in enumerate(zip(daf, labs)):
                t.append(f"w{i:03d}", "vote", d, lab)
            t = stratified_split(t, rng_seed=seed)
            model = _train(t, "vote", rng_seed=seed)
            aurocs.append(evaluate_model(model, t).auroc)
        assert abs(np.mean(aurocs) - 0.5) < 0.1

    def test_degenerate_feature_predicts_prior(self):
        t = _table([6.0] * 20, [6.0] * 20)
        t = stratified_split(t, rng_seed=0)
        model = _train(t, "vote", rng_seed=0)
        x = np.array([4.0, 6.0, np.nextafter(6.0, 7.0), 12.0])
        assert np.array_equal(predict_proba(model, x), np.full(4, 0.5))  # 16 of 32 train AF
        m = evaluate_model(model, t)
        assert m.auroc == pytest.approx(0.5)

    def test_bit_exact_reproducibility(self):
        rng = np.random.default_rng(3)
        t = _table(rng.uniform(5, 9, 40), rng.uniform(7, 11, 40))
        t = stratified_split(t, rng_seed=5)
        x_test, _, _ = t.select(method="vote", split="test")
        p1 = predict_proba(_train(t, "vote", rng_seed=5), x_test)
        p2 = predict_proba(_train(t, "vote", rng_seed=5), x_test)
        assert np.array_equal(p1, p2)

    def test_missing_method_rejected(self):
        t = _table([6.0] * 10, [10.0] * 10)
        t = stratified_split(t, rng_seed=0)
        with pytest.raises(ConfigError, match="TS_PCA"):
            _train(t, "TS_PCA")

    @given(_tree_inputs(), st.integers(1, 60), st.integers(0, 2**32 - 1))
    # two root thresholds score equal up to rounding here: the first must
    # win, as with the 1e-15 rule, where argmin would take the other
    @example((np.array([390, 434, 443, 410, 355, 488, 286, 279]) * WELCH_BIN_HZ,
              np.array([0, 0, 0, 1, 1, 1, 1, 0]), 1), 10, 2)
    @settings(max_examples=200, deadline=None)
    def test_grow_tree_matches_reference(self, case, n_trees, seed):
        x, y, max_depth = case
        t = _train_table(x, y)
        _assert_same_forest(_train(t, "vote", n_trees, max_depth, seed),
                            _train_rf_reference(t, "vote", n_trees, max_depth, seed))
        if _no_ulp_pair(x):  # the one case the masking reference gets wrong
            assert _grow_tree(x, y, 0, max_depth) == _steps(
                _grow_tree_reference(x, y, 0, max_depth)
            )

    def test_adjacent_floats_split_without_nan(self):
        lo = np.nextafter(12.0, 0)
        assert (lo + 12.0) / 2.0 == 12.0  # the midpoint rounds onto the upper value
        x = np.array([12.0, lo, 12.0, lo])
        y = np.array([1, 0, 1, 0])
        assert _grow_tree(x, y, 0, 4) == ([lo], [0.0, 1.0])
        t = _train_table(x, y)
        model = _train(t, "vote", n_trees=20, rng_seed=0)
        _assert_same_forest(model, _train_rf_reference(t, "vote", n_trees=20, rng_seed=0))
        assert model.breaks.tolist() == [lo]
        assert not np.isnan(model.probs).any()

    def test_near_tie_replays_the_scan_in_order(self, monkeypatch):
        # in one tree a node's candidate scores read 0.20000000000000004
        # and then 0.19999999999999996: they differ by less than 1e-15, so
        # the scan in order keeps the first, where argmin takes the second
        x = np.array([390, 434, 443, 410, 355, 488, 286, 279]) * WELCH_BIN_HZ
        y = np.array([0, 0, 0, 1, 1, 1, 1, 0])
        replays = []
        scan = fwave.evaluate._sequential_best

        def counted(scores):
            replays.append((scores.tolist(), scan(scores)))
            return replays[-1][1]

        monkeypatch.setattr(fwave.evaluate, "_sequential_best", counted)
        t = _train_table(x, y)
        model = _train(t, "vote", n_trees=5, max_depth=1, rng_seed=2)
        assert all(pick == _scan_in_order(scores) for scores, pick in replays)
        assert any(pick != np.argmin(scores) for scores, pick in replays)
        _assert_same_forest(model, _train_rf_reference(t, "vote", 5, 1, 2))

    @given(st.lists(st.lists(st.integers(0, 4), min_size=1, max_size=6), min_size=1, max_size=8),
           st.sampled_from([0.125, 0.5, 0.3]))
    @settings(max_examples=200, deadline=None)
    def test_first_best_is_the_scan_in_order(self, nodes, base):
        # scores a few tenths of 1e-15 apart: a node's first minimum, its
        # first score within 1e-15 of the minimum and the scan in order
        # can pick three different candidates, e.g. [4, 2, 1, 0] * 0.4e-15
        scores = [[base + 0.4e-15 * k for k in node] for node in nodes]
        n_cand = np.array([len(node) for node in nodes])
        first = np.cumsum(n_cand) - n_cand
        expected = [start + _scan_in_order(node) for node, start in zip(scores, first)]
        flat = np.array([v for node in scores for v in node])
        assert fwave.evaluate._first_best(flat, first, n_cand).tolist() == expected

    def test_predict_proba_matches_per_value_walk(self):
        rng = np.random.default_rng(6)
        t = _table(rng.uniform(5, 9, 40), rng.uniform(7, 11, 40))
        t = stratified_split(t, rng_seed=2)
        model = _train(t, "vote", rng_seed=2)
        trees = _reference_forest(t, "vote", rng_seed=2)
        thresholds = [thr for tree in trees for thr in _steps(tree)[0]]
        # values on a threshold take the left branch
        x = np.concatenate([rng.uniform(3, 13, 200), thresholds])
        assert np.array_equal(predict_proba(model, x), _predict_reference(trees, x))

    @given(_tree_inputs(), st.integers(1, 30), st.integers(0, 2**32 - 1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_predict_proba_is_the_reference_forest(self, case, n_trees, seed, data):
        x, y, max_depth = case
        t = _train_table(x, y)
        model = _train(t, "vote", n_trees=n_trees, max_depth=max_depth, rng_seed=seed)
        _assert_same_forest(model, _train_rf_reference(t, "vote", n_trees, max_depth, seed))
        q = np.array(data.draw(st.lists(st.floats(3.0, 13.0), max_size=50)), dtype=np.float64)
        q = np.concatenate([q, model.breaks, np.nextafter(model.breaks, -np.inf),
                            np.nextafter(model.breaks, np.inf)])
        if len(np.unique(x)) == 1:  # no split exists: the forest predicts the training AF fraction
            expected = np.full(len(q), np.mean(y))
        elif _no_ulp_pair(x):
            expected = _predict_reference(
                _reference_forest(t, "vote", n_trees, max_depth, seed), q
            )
        else:  # the masking reference would grow a nan leaf
            return
        assert np.array_equal(predict_proba(model, q), expected)

    def test_stage_eval_bytes_match_reference_forest(self, tmp_path, monkeypatch):
        table = _eval_table(seed=4)
        stage_eval(PipelineConfig(out_dir=str(tmp_path / "new"), seed=4), table=table)
        monkeypatch.setattr(fwave.pipeline, "train_rf", _reference_trainer(4))
        stage_eval(PipelineConfig(out_dir=str(tmp_path / "ref"), seed=4), table=table)
        for name in ("features.csv", "metrics.json", "report.txt"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name

    def test_stage_eval_with_a_shorter_method_matches_reference(self, tmp_path, monkeypatch):
        # TS_PCA, outside the voting set, loses a third of its training
        # rows: its forest needs draws of its own row count
        table = stratified_split(_eval_table(seed=9), rng_seed=9)
        keep = [i for i, (_, m, _, _, s) in enumerate(table.rows())
                if not (m == "TS_PCA" and s == "train" and i % 3 == 0)]
        table = FeatureTable(*([col[i] for i in keep] for col in (
            table.window_ids, table.methods, table.daf_hz, table.labels, table.split)))
        counts = {m: len(table.select(method=m, split="train")[0]) for m in ("TS_B", "TS_PCA")}
        assert counts["TS_PCA"] < counts["TS_B"]
        calls = []
        monkeypatch.setattr(fwave.pipeline, "bootstrap_draws",
                            lambda *args: calls.append(args) or bootstrap_draws(*args))
        voting = ("TS_B", "TS_CE", "TS_SU")
        stage_eval(PipelineConfig(out_dir=str(tmp_path / "new"), seed=9, voting_set=voting),
                   table=table)
        assert sorted(calls) == sorted((n, 100, 9) for n in set(counts.values()))
        monkeypatch.setattr(fwave.pipeline, "train_rf", _reference_trainer(9))
        stage_eval(PipelineConfig(out_dir=str(tmp_path / "ref"), seed=9, voting_set=voting),
                   table=table)
        for name in ("features.csv", "metrics.json", "report.txt"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name

    def test_one_draw_and_five_forests_per_evaluation(self, tmp_path, monkeypatch):
        draws, forests = [], []
        monkeypatch.setattr(fwave.pipeline, "bootstrap_draws",
                            lambda *args: draws.append(args) or bootstrap_draws(*args))
        monkeypatch.setattr(fwave.pipeline, "train_rf",
                            lambda *args, **kw: forests.append(args[1]) or train_rf(*args, **kw))
        table = _eval_table(seed=4)
        for rep in range(2):  # a second evaluation draws again
            stage_eval(PipelineConfig(out_dir=str(tmp_path / f"o{rep}"), seed=4), table=table)
            assert len(draws) == rep + 1
            assert forests[5 * rep:] == ["TS_B", "TS_CE", "TS_SU", "TS_PCA", "vote"]
        assert draws == [(160, 100, 4)] * 2


class TestBootstrapDraws:
    @given(st.integers(0, 600), st.integers(0, 40), st.integers(0, 2**32 - 1))
    @example(255, 3, 0)
    @example(256, 3, 0)
    @example(257, 3, 7)
    @settings(max_examples=200, deadline=None)
    def test_equals_the_per_tree_loop(self, n, n_trees, seed):
        draws = bootstrap_draws(n, n_trees, seed)
        assert draws.shape == (n_trees, n)
        rows = np.arange(n)
        assert np.array_equal(draws, _bootstrap_keys_loop(rows, rows, n_trees, seed))
        row_bin = 2 * rows + rows % 2
        assert np.array_equal(row_bin[draws], _bootstrap_keys_loop(row_bin, rows, n_trees, seed))

    def test_smallest_dtype(self):
        assert bootstrap_draws(256, 2, 0).dtype == np.uint8
        assert bootstrap_draws(257, 2, 0).dtype == np.uint16

    def test_draws_for_other_rows_are_refused(self):
        t = stratified_split(_table([6.0, 7.0] * 10, [9.0, 10.0] * 10), rng_seed=0)
        with pytest.raises(ValueError, match="draws for 15 rows"):
            train_rf(t, "vote", bootstrap_draws(15, 10, 0))


class TestAuroc:
    def test_separated_scores(self):
        assert auroc_rank([0.9, 0.8, 0.7, 0.1], [1, 1, 0, 0]) == pytest.approx(1.0)

    def test_one_swap_gives_075(self):
        assert auroc_rank([0.9, 0.8, 0.85, 0.1], [1, 1, 0, 0]) == pytest.approx(0.75)

    def test_ties_half_credit(self):
        assert auroc_rank([0.5, 0.5], [1, 0]) == pytest.approx(0.5)

    def test_brute_force_equivalence_small(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = rng.integers(4, 50)
            scores = rng.choice(np.linspace(0, 1, 7), size=n)
            labels = rng.integers(0, 2, size=n)
            if labels.sum() in (0, n):
                labels[0] = 1 - labels[0]
            pos = scores[labels == 1]
            neg = scores[labels == 0]
            brute = np.mean([
                1.0 if p > q else (0.5 if p == q else 0.0)
                for p in pos for q in neg
            ])
            assert auroc_rank(scores, labels) == pytest.approx(brute, abs=1e-12)

    @given(
        # coarse score grid so the transform cannot merge near-equal floats
        st.lists(st.sampled_from([i / 20 for i in range(21)]), min_size=4, max_size=30),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_transform_invariance(self, scores, data):
        labels = data.draw(
            st.lists(st.integers(min_value=0, max_value=1),
                     min_size=len(scores), max_size=len(scores))
        )
        scores = np.array(scores)
        labels = np.array(labels)
        a = auroc_rank(scores, labels)
        b = auroc_rank(np.exp(3.0 * scores), labels)
        assert a == pytest.approx(b, abs=1e-12)

    @given(
        st.one_of(
            # a small grid: many ties, and all-equal rows
            st.lists(st.tuples(st.sampled_from([0.0, 0.25, 0.5, 1.0]), st.integers(0, 1)),
                     min_size=2, max_size=40),
            st.lists(st.tuples(st.floats(-1e6, 1e6), st.integers(0, 1)),
                     min_size=2, max_size=40),
        )
    )
    @settings(max_examples=300, deadline=None)
    @example([(0.5, 1), (0.5, 0)])
    @example([(0.7, 0), (0.2, 1)])
    @example([(1.0, 1)] * 3 + [(1.0, 0)] * 5)
    def test_equals_scipy_rankdata(self, rows):
        """Bit for bit what scipy's tie-averaged ranks give."""
        from scipy import stats

        scores, labels = (np.array(col) for col in zip(*rows))
        n_pos = int(labels.sum())
        assume(0 < n_pos < len(labels))
        r_pos = float(np.sum(stats.rankdata(scores)[labels == 1]))
        expected = (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * (len(labels) - n_pos))
        assert auroc_rank(scores, labels) == expected


class TestEvaluateModel:
    def test_hand_computed_f1(self):
        # 8 test rows; a stump that calls daf <= 8 AF
        t = FeatureTable.empty()
        train = [(6.0, "AF"), (6.5, "AF"), (7.0, "AF"), (7.5, "AF"), (6.2, "AF"),
                 (9.0, "non-AF"), (9.5, "non-AF"), (10.0, "non-AF"),
                 (10.5, "non-AF"), (9.2, "non-AF")]
        for i, (d, lab) in enumerate(train):
            t.append(f"tr{i}", "vote", d, lab, "train")
        # test: 3 AF of which one lands on the wrong side, 5 non-AF all right
        test = [(6.1, "AF"), (6.9, "AF"), (9.8, "AF"),
                (9.1, "non-AF"), (9.9, "non-AF"), (10.2, "non-AF"),
                (10.8, "non-AF"), (9.4, "non-AF")]
        for i, (d, lab) in enumerate(test):
            t.append(f"te{i}", "vote", d, lab, "test")
        model = _train(t, "vote", rng_seed=0)
        m = evaluate_model(model, t)
        # tp=2 fn=1 fp=0 -> sens=2/3, ppv=1, f1=0.8
        assert m.sensitivity == pytest.approx(2 / 3)
        assert m.ppv == pytest.approx(1.0)
        assert m.f1 == pytest.approx(0.8)
        assert m.n_train == 10 and m.n_test == 8

    def test_no_test_rows_rejected(self):
        t = _table([6.0] * 10, [10.0] * 10)
        for i in range(len(t)):
            t.split[i] = "train"
        model = _train(t, "vote", rng_seed=0)
        with pytest.raises(ConfigError, match="test"):
            evaluate_model(model, t)


def _metrics(f1, auroc):
    return ClassifierMetrics(f1=f1, auroc=auroc, sensitivity=0, ppv=0)


class TestRankMethods:
    def test_f1_then_name_tiebreak(self):
        metrics = {
            "TS_B": _metrics(0.62, 0.59),
            "TS_CE": _metrics(0.61, 0.59),
            "TS_SU": _metrics(0.61, 0.59),
            "TS_PCA": _metrics(0.56, 0.53),
        }
        assert rank_methods(metrics) == ["TS_B", "TS_CE", "TS_SU", "TS_PCA"]

    def test_auroc_primary(self):
        metrics = {
            "TS_B": _metrics(0.99, 0.70),
            "TS_CE": _metrics(0.10, 0.80),
        }
        assert rank_methods(metrics) == ["TS_CE", "TS_B"]

    def test_all_equal_lexicographic(self):
        metrics = {m: _metrics(0.5, 0.5) for m in ("TS_SU", "TS_B", "TS_PCA", "TS_CE")}
        assert rank_methods(metrics) == ["TS_B", "TS_CE", "TS_PCA", "TS_SU"]

    def test_needs_two(self):
        with pytest.raises(ConfigError):
            rank_methods({"TS_B": _metrics(0.5, 0.5)})


class TestFeatureTableCsv:
    def test_roundtrip(self, tmp_path):
        t = _table([6.0, 6.5], [10.0, 9.1])
        t.split = ["train", "test", "train", "test"]
        p = tmp_path / "f.csv"
        t.to_csv(p)
        back = FeatureTable.from_csv(p)
        assert back.window_ids == t.window_ids
        assert back.labels == t.labels
        assert back.split == t.split
        np.testing.assert_allclose(back.daf_hz, t.daf_hz, atol=1e-6)

    def test_header_format(self, tmp_path):
        t = _table([6.0], [10.0])
        p = tmp_path / "f.csv"
        t.to_csv(p)
        assert p.read_text().splitlines()[0] == "window_id,method,daf_hz,label,split"

    def test_mismatched_columns_rejected(self):
        with pytest.raises(ValueError):
            FeatureTable(["a"], [], [6.0], ["AF"])

    @pytest.mark.parametrize("text, needle", [
        ("window_id,method,label\nw0,vote,AF\n", "missing column(s) daf_hz"),
        ("window_id,method,daf_hz,label\nw0,vote,6.5,AF\nw1,vote,fast,AF\n", "line 3"),
        ("window_id,method,daf_hz,label\nw0,vote,nan,AF\n", "line 2"),
        ("window_id,method,daf_hz,label\nw0,vote,6.5\n", "line 2"),
        ("", "missing column(s) window_id"),
        ("window_id,method,daf_hz,label\nw0,vote,6.5,AF\nw1,vote,9.5,af\n", "line 3"),
        ("window_id,method,daf_hz,label\nw0,vote,6.5,XX\n", "label must be AF or non-AF"),
    ], ids=["no_daf_column", "non_numeric", "non_finite", "short_row", "empty_file",
            "lowercase_label", "unknown_label"])
    def test_malformed_table_is_a_format_error(self, tmp_path, text, needle):
        p = tmp_path / "f.csv"
        p.write_text(text)
        with pytest.raises(FormatError, match=r"f\.csv") as info:
            FeatureTable.from_csv(p)
        assert needle in str(info.value)

    def test_non_utf8_table_is_a_format_error(self, tmp_path):
        p = tmp_path / "f.csv"
        p.write_bytes(b"window_id,method,daf_hz,label\nw\xff,vote,6.5,AF\n")
        with pytest.raises(FormatError, match="utf-8"):
            FeatureTable.from_csv(p)
