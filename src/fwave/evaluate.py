"""AF/non-AF classification from the DAF feature and method ranking.

A small random forest is grown from scratch on the single scalar DAF
feature (bootstrap-sampled, Gini-split threshold trees), which keeps
training fully deterministic for a given seed. Each node finds its
split by one prefix-sum sweep over the sorted feature, and each tree
predicts a whole test vector at once. AUROC uses the rank
statistic (Mann-Whitney), ties counting 0.5.
"""

import csv
from dataclasses import dataclass, field

import numpy as np
from scipy import stats

from .errors import ConfigError, FormatError

POSITIVE_LABEL = "AF"
DEFAULT_THRESHOLD = 0.5
REQUIRED_COLUMNS = ("window_id", "method", "daf_hz", "label")


@dataclass
class FeatureTable:
    window_ids: list
    methods: list
    daf_hz: list
    labels: list  # "AF" / "non-AF"
    split: list = field(default_factory=list)  # "train" / "test" / ""

    def __post_init__(self):
        n = len(self.window_ids)
        if not (len(self.methods) == len(self.daf_hz) == len(self.labels) == n):
            raise ValueError("feature table columns have mismatched lengths")
        if not self.split:
            self.split = [""] * n

    def __len__(self):
        return len(self.window_ids)

    def rows(self):
        return zip(self.window_ids, self.methods, self.daf_hz, self.labels, self.split)

    def select(self, method=None, split=None):
        idx = [
            i
            for i in range(len(self))
            if (method is None or self.methods[i] == method)
            and (split is None or self.split[i] == split)
        ]
        return (
            np.array([self.daf_hz[i] for i in idx], dtype=np.float64),
            np.array([1 if self.labels[i] == POSITIVE_LABEL else 0 for i in idx]),
            [self.window_ids[i] for i in idx],
        )

    def append(self, window_id, method, daf, label, split=""):
        self.window_ids.append(window_id)
        self.methods.append(method)
        self.daf_hz.append(daf)
        self.labels.append(label)
        self.split.append(split)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["window_id", "method", "daf_hz", "label", "split"])
            for row in self.rows():
                w.writerow([row[0], row[1], f"{row[2]:.6f}", row[3], row[4]])

    @classmethod
    def from_csv(cls, path):
        """Read a table written by ``to_csv``; ``split`` may be absent.

        A missing column, a short row, a non-finite or non-numeric
        ``daf_hz``, a second row for one (window_id, method) or bytes
        that are not UTF-8 raise FormatError.
        """
        wid, met, daf, lab, spl = [], [], [], [], []
        seen = set()
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.DictReader(fh)
                missing = [c for c in REQUIRED_COLUMNS if c not in (reader.fieldnames or ())]
                if missing:
                    raise FormatError(f"{path}: missing column(s) {', '.join(missing)}")
                for row in reader:
                    values = [row[c] for c in REQUIRED_COLUMNS]
                    try:
                        d = float(row["daf_hz"])
                    except (TypeError, ValueError):
                        d = np.nan
                    if None in values or not np.isfinite(d):
                        raise FormatError(
                            f"{path}: line {reader.line_num}: need a finite daf_hz and "
                            f"all of {', '.join(REQUIRED_COLUMNS)}, got {values}"
                        )
                    key = (row["window_id"], row["method"])
                    if key in seen:
                        raise FormatError(f"{path}: line {reader.line_num}: second row for {key}")
                    seen.add(key)
                    wid.append(row["window_id"])
                    met.append(row["method"])
                    daf.append(d)
                    lab.append(row["label"])
                    spl.append(row.get("split", "") or "")
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"{path}: {exc}") from None
        return cls(wid, met, daf, lab, spl)

    @classmethod
    def empty(cls):
        return cls([], [], [], [], [])


@dataclass
class RandomForestModel:
    trees: list
    n_trees: int
    max_depth: int
    rng_seed: int
    method: str
    degenerate: bool = False
    prior: float = 0.5


@dataclass
class ClassifierMetrics:
    f1: float
    auroc: float
    sensitivity: float
    ppv: float
    threshold: float = DEFAULT_THRESHOLD
    n_train: int = 0
    n_test: int = 0


def stratified_split(table: FeatureTable, train_frac: float = 0.8, rng_seed: int = 0) -> FeatureTable:
    """Assign a train/test split per window, balanced in training.

    All of a window's rows (one per method) share the split. The
    training set holds floor(train_frac * minority count) windows of
    each class; everything else is test.
    """
    window_label = {}
    for wid, _, _, lab, _ in table.rows():
        if wid in window_label and window_label[wid] != lab:
            raise ConfigError(f"window {wid} carries conflicting labels")
        window_label[wid] = lab
    classes = {}
    for wid in sorted(window_label):
        classes.setdefault(window_label[wid], []).append(wid)
    for lab, wids in classes.items():
        if len(wids) < 5:
            raise ConfigError(f"class {lab!r} has only {len(wids)} windows, need >= 5")
    if len(classes) != 2:
        raise ConfigError(f"need exactly two classes, got {sorted(classes)}")
    minority = min(len(w) for w in classes.values())
    n_train = int(train_frac * minority)
    rng = np.random.default_rng(rng_seed)
    assignment = {}
    for lab in sorted(classes):
        wids = list(classes[lab])
        rng.shuffle(wids)
        for wid in wids[:n_train]:
            assignment[wid] = "train"
        for wid in wids[n_train:]:
            assignment[wid] = "test"
    split = [assignment[wid] for wid in table.window_ids]
    return FeatureTable(
        list(table.window_ids), list(table.methods), list(table.daf_hz),
        list(table.labels), split,
    )


# --- random forest on a single scalar feature ------------------------------

def _grow_tree(x, y, depth, max_depth):
    """Nodes are (threshold, left, right); leaves are float AF fractions."""
    if depth >= max_depth or len(np.unique(y)) == 1:
        return float(np.mean(y))
    order = np.argsort(x, kind="stable")
    xs, ys = x[order], y[order]
    uniq = np.unique(xs)
    if len(uniq) < 2:
        return float(np.mean(y))
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
    return (
        float(thr),
        _grow_tree(xs[:n_left], ys[:n_left], depth + 1, max_depth),
        _grow_tree(xs[n_left:], ys[n_left:], depth + 1, max_depth),
    )


def _tree_output(node, x):
    """A tree's leaf value for every element of ``x``."""
    if not isinstance(node, tuple):
        return node
    thr, left, right = node
    return np.where(x <= thr, _tree_output(left, x), _tree_output(right, x))


def train_rf(
    table: FeatureTable,
    method: str,
    n_trees: int = 100,
    max_depth: int = 4,
    rng_seed: int = 0,
) -> RandomForestModel:
    """Bootstrap-sampled threshold trees over the scalar DAF feature."""
    x, y, _ = table.select(method=method, split="train")
    if len(x) == 0:
        raise ConfigError(f"no training rows for method {method!r}")
    prior = float(np.mean(y))
    if len(np.unique(x)) == 1:
        return RandomForestModel(
            trees=[], n_trees=n_trees, max_depth=max_depth, rng_seed=rng_seed,
            method=method, degenerate=True, prior=prior,
        )
    children = np.random.SeedSequence(rng_seed).spawn(n_trees)
    trees = []
    for seq in children:
        rng = np.random.default_rng(seq)
        idx = rng.integers(0, len(x), size=len(x))
        trees.append(_grow_tree(x[idx], y[idx], 0, max_depth))
    return RandomForestModel(
        trees=trees, n_trees=n_trees, max_depth=max_depth, rng_seed=rng_seed,
        method=method, prior=prior,
    )


def predict_proba(model: RandomForestModel, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if model.degenerate:
        return np.full(len(x), model.prior)
    out = np.zeros(len(x))
    for tree in model.trees:
        out += _tree_output(tree, x)
    return out / len(model.trees)


def auroc_rank(scores, labels) -> float:
    """AUROC via the rank statistic; ties contribute 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    ranks = stats.rankdata(scores)
    r_pos = float(np.sum(ranks[labels == 1]))
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate_model(
    model: RandomForestModel,
    table: FeatureTable,
    threshold: float = DEFAULT_THRESHOLD,
) -> ClassifierMetrics:
    """F1 at the default probability threshold plus rank-statistic AUROC."""
    x_test, y_test, _ = table.select(method=model.method, split="test")
    if len(x_test) == 0:
        raise ConfigError(f"no test rows for method {model.method!r}")
    x_train, _, _ = table.select(method=model.method, split="train")
    probs = predict_proba(model, x_test)
    pred = probs >= threshold
    tp = int(np.sum(pred & (y_test == 1)))
    fp = int(np.sum(pred & (y_test == 0)))
    fn = int(np.sum(~pred & (y_test == 1)))
    sens = tp / (tp + fn) if tp + fn else 0.0
    ppv = tp / (tp + fp) if tp + fp else 0.0
    f1 = 2 * sens * ppv / (sens + ppv) if sens + ppv else 0.0
    return ClassifierMetrics(
        f1=f1,
        auroc=auroc_rank(probs, y_test),
        sensitivity=sens,
        ppv=ppv,
        threshold=threshold,
        n_train=len(x_train),
        n_test=len(x_test),
    )


def rank_methods(metrics: dict) -> list:
    """AUROC descending, F1 as tie-break, then method name."""
    if len(metrics) < 2:
        raise ConfigError("need metrics for at least two methods to rank")
    return sorted(metrics, key=lambda m: (-metrics[m].auroc, -metrics[m].f1, m))
