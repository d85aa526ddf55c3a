import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import fwave.evaluate
from fwave.errors import ConfigError, FormatError
from fwave.evaluate import (
    ClassifierMetrics,
    FeatureTable,
    auroc_rank,
    evaluate_model,
    predict_proba,
    rank_methods,
    stratified_split,
    train_rf,
)
from fwave.pipeline import PipelineConfig, stage_eval

WELCH_BIN_HZ = 200.0 / 8192  # DAF grid of the default 10 s Welch segments


# Oracle for the forest's split search: a scan that masks both sides of
# every threshold and scores each with _gini. The prefix-sum sweep in
# fwave.evaluate must grow the same trees bit for bit.
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


def _predict_reference(model, x):
    """One walk from the root per (tree, value), summed in tree order."""
    out = np.zeros(len(x))
    for tree in model.trees:
        values = []
        for v in x:
            node = tree
            while isinstance(node, tuple):
                thr, left, right = node
                node = left if v <= thr else right
            values.append(node)
        out += values
    return out / len(model.trees)


@st.composite
def _tree_inputs(draw):
    """A feature vector (continuous, on the Welch grid, or a handful of
    repeated values), 0/1 labels and a depth limit."""
    n = draw(st.integers(2, 200))
    kind = draw(st.sampled_from(["continuous", "welch", "repeated"]))
    if kind == "continuous":
        x = draw(st.lists(st.floats(4.0, 12.0), min_size=n, max_size=n))
    elif kind == "welch":
        bins = draw(st.lists(st.integers(164, 492), min_size=n, max_size=n))
        x = [k * WELCH_BIN_HZ for k in bins]
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
        model = train_rf(t, "vote", rng_seed=0)
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
            model = train_rf(t, "vote", rng_seed=seed)
            aurocs.append(evaluate_model(model, t).auroc)
        assert abs(np.mean(aurocs) - 0.5) < 0.1

    def test_degenerate_feature_predicts_prior(self):
        t = _table([6.0] * 20, [6.0] * 20)
        t = stratified_split(t, rng_seed=0)
        model = train_rf(t, "vote", rng_seed=0)
        assert model.degenerate
        m = evaluate_model(model, t)
        assert m.auroc == pytest.approx(0.5)

    def test_bit_exact_reproducibility(self):
        rng = np.random.default_rng(3)
        t = _table(rng.uniform(5, 9, 40), rng.uniform(7, 11, 40))
        t = stratified_split(t, rng_seed=5)
        x_test, _, _ = t.select(method="vote", split="test")
        p1 = predict_proba(train_rf(t, "vote", rng_seed=5), x_test)
        p2 = predict_proba(train_rf(t, "vote", rng_seed=5), x_test)
        assert np.array_equal(p1, p2)

    def test_missing_method_rejected(self):
        t = _table([6.0] * 10, [10.0] * 10)
        t = stratified_split(t, rng_seed=0)
        with pytest.raises(ConfigError, match="TS_PCA"):
            train_rf(t, "TS_PCA")

    @given(_tree_inputs())
    # two root thresholds score equal up to rounding here: the first must
    # win, as with the 1e-15 rule, where argmin would take the other
    @example((np.array([390, 434, 443, 410, 355, 488, 286, 279]) * WELCH_BIN_HZ,
              np.array([0, 0, 0, 1, 1, 1, 1, 0]), 1))
    @settings(max_examples=200, deadline=None)
    def test_grow_tree_matches_reference(self, case):
        x, y, max_depth = case
        # the one exclusion: the reference splits two adjacent floats at a
        # midpoint that rounds onto the upper one and grows a nan leaf,
        # where _grow_tree splits at the lower one (see the test below)
        u = np.unique(x)
        assume(np.all((u[:-1] + u[1:]) / 2.0 < u[1:]))
        assert fwave.evaluate._grow_tree(x, y, 0, max_depth) == _grow_tree_reference(
            x, y, 0, max_depth
        )

    def test_adjacent_floats_split_without_nan(self):
        lo = np.nextafter(12.0, 0)
        assert (lo + 12.0) / 2.0 == 12.0  # the midpoint rounds onto the upper value
        x = np.array([12.0, lo, 12.0, lo])
        y = np.array([1, 0, 1, 0])
        assert fwave.evaluate._grow_tree(x, y, 0, 4) == (lo, 0.0, 1.0)

    def test_predict_proba_matches_per_value_walk(self):
        rng = np.random.default_rng(6)
        t = _table(rng.uniform(5, 9, 40), rng.uniform(7, 11, 40))
        t = stratified_split(t, rng_seed=2)
        model = train_rf(t, "vote", rng_seed=2)
        thresholds = []
        stack = list(model.trees)
        while stack:
            node = stack.pop()
            if isinstance(node, tuple):
                thresholds.append(node[0])
                stack.extend(node[1:])
        # values on a threshold take the left branch
        x = np.concatenate([rng.uniform(3, 13, 200), thresholds])
        assert np.array_equal(predict_proba(model, x), _predict_reference(model, x))

    def test_stage_eval_bytes_match_reference_forest(self, tmp_path, monkeypatch):
        table = _eval_table(seed=4)
        stage_eval(PipelineConfig(out_dir=str(tmp_path / "new"), seed=4), table=table)
        monkeypatch.setattr(fwave.evaluate, "_grow_tree", _grow_tree_reference)
        stage_eval(PipelineConfig(out_dir=str(tmp_path / "ref"), seed=4), table=table)
        for name in ("features.csv", "metrics.json", "report.txt"):
            assert (tmp_path / "new" / name).read_bytes() == (tmp_path / "ref" / name).read_bytes(), name


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
        model = train_rf(t, "vote", rng_seed=0)
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
        model = train_rf(t, "vote", rng_seed=0)
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
    ], ids=["no_daf_column", "non_numeric", "non_finite", "short_row", "empty_file"])
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
