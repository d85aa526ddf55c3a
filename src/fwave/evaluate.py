"""AF/non-AF classification from the DAF feature and method ranking.

The feature table holds one row per (window, method) in numpy columns:
``daf_hz`` is float64, the others are object arrays of ``str`` (numpy's
fixed-width strings drop trailing NULs, which would change a window id).

A small random forest is grown from scratch on the single scalar DAF
feature (bootstrap-sampled, Gini-split threshold trees), which keeps
training fully deterministic for a given seed. Each tree's bootstrap
sample becomes row and AF counts per distinct value; the trees' sorted
values lie end to end in one flat array, and a node is a range of it.
All trees grow together, level by level: one numpy pass per depth
scores every candidate split of every live node from two prefix sums,
as histogram boosting grows its trees, but exact, since a single
feature needs no binning. Every tree is a step function, and so is
their average: the trained forest is a sorted array of breakpoints with
one AF probability per interval, and prediction is one
``searchsorted``. AUROC uses the rank statistic (Mann-Whitney), ties
counting 0.5.

The bootstrap indices depend only on the seed, the tree count and the
number of training rows, so ``bootstrap_draws`` draws them once and
``train_rf`` takes them: one evaluation draws once for the forests of
all methods and the vote, which share these three.
"""

import csv
import itertools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .dataio import LABELS
from .errors import ConfigError, FormatError

POSITIVE_LABEL = LABELS[0]
DEFAULT_THRESHOLD = 0.5
REQUIRED_COLUMNS = ("window_id", "method", "daf_hz", "label")


@dataclass
class FeatureTable:
    window_ids: np.ndarray
    methods: np.ndarray
    daf_hz: np.ndarray
    labels: np.ndarray  # "AF" / "non-AF"
    split: np.ndarray = ()  # "train" / "test" / ""; empty: "" for every row

    def __post_init__(self):
        if len(self.split) == 0:
            self.split = [""] * len(self.window_ids)
        if len({len(getattr(self, f.name)) for f in fields(self)}) > 1:
            raise ValueError("feature table columns have mismatched lengths")
        for name in ("window_ids", "methods", "labels", "split"):
            setattr(self, name, np.asarray(getattr(self, name), dtype=object))
        self.daf_hz = np.asarray(self.daf_hz, dtype=np.float64)

    def __len__(self):
        return len(self.window_ids)

    def select(self, method, split):
        """The DAFs and AF indicators of ``method``'s rows in ``split``."""
        keep = (self.methods == method) & (self.split == split)
        return self.daf_hz[keep], (self.labels[keep] == POSITIVE_LABEL).astype(int)

    def to_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["window_id", "method", "daf_hz", "label", "split"])
            w.writerows(zip(self.window_ids.tolist(), self.methods.tolist(),
                            [f"{d:.6f}" for d in self.daf_hz.tolist()],
                            self.labels.tolist(), self.split.tolist()))

    @classmethod
    def from_csv(cls, path):
        """Read a table written by ``to_csv``; ``split`` may be absent.

        A missing column, a short row, a non-finite or non-numeric
        ``daf_hz``, a ``label`` other than ``AF`` or ``non-AF``, a second
        row for one (window_id, method), rows of one window that differ in
        ``label`` or ``split``, or bytes that are not UTF-8 raise
        FormatError; so does, after these checks, a ``split`` other than
        ``train``, ``test`` or empty, or one that some windows lack. As
        with ``csv.DictReader``, blank rows are skipped and a repeated
        column name reads its last column.
        """
        rows = []
        seen, window = set(), {}  # window id: its (label, split), the line of its first row
        try:
            with open(path, newline="", encoding="utf-8") as fh:
                reader = csv.reader(fh)
                header = next(reader, None) or []
                at = {name: i for i, name in enumerate(header)}
                missing = [c for c in REQUIRED_COLUMNS if c not in at]
                if missing:
                    raise FormatError(f"{path}: missing column(s) {', '.join(missing)}")
                take, split_at = [at[c] for c in REQUIRED_COLUMNS], at.get("split")
                for row in (r for r in reader if r):
                    row += [None] * (len(header) - len(row))
                    wid, method, daf_text, label = values = [row[i] for i in take]
                    try:
                        daf = float(daf_text)
                    except (TypeError, ValueError):
                        daf = math.nan
                    if None in values or not math.isfinite(daf):
                        raise FormatError(
                            f"{path}: line {reader.line_num}: need a finite daf_hz and "
                            f"all of {', '.join(REQUIRED_COLUMNS)}, got {values}"
                        )
                    if label not in LABELS:
                        raise FormatError(
                            f"{path}: line {reader.line_num}: label must be "
                            f"{' or '.join(LABELS)}, got {label!r}"
                        )
                    key = (wid, method)
                    if key in seen:
                        raise FormatError(f"{path}: line {reader.line_num}: second row for {key}")
                    seen.add(key)
                    label_split = (label, (None if split_at is None else row[split_at]) or "")
                    first = window.setdefault(wid, (label_split, reader.line_num))[0]
                    if label_split != first:
                        raise FormatError(
                            f"{path}: line {reader.line_num}: window {wid!r} has "
                            f"label, split {label_split}, an earlier row {first}"
                        )
                    rows.append((wid, method, daf, label, label_split[1]))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"{path}: {exc}") from None
        # the first window's split says whether every window names one
        allowed = ("train", "test") if rows and rows[0][4] else ("",)
        for (_, split), line in window.values():
            if split not in allowed:
                raise FormatError(f"{path}: line {line}: split must be train or test in every "
                                  f"window, or empty in every window, got {split!r}")
        return cls(*zip(*rows)) if rows else cls([], [], [], [])


@dataclass
class RandomForestModel:
    """The forest as a step function: a value ``v`` gets
    ``probs[searchsorted(breaks, v)]``, so ``probs`` has one entry more
    than ``breaks`` and values on a break take the interval below it."""

    breaks: np.ndarray
    probs: np.ndarray
    method: str
    n_train: int


@dataclass
class ClassifierMetrics:
    f1: float
    auroc: float
    n_train: int = 0
    n_test: int = 0


def stratified_split(table: FeatureTable, train_frac: float = 0.8, rng_seed: int = 0) -> FeatureTable:
    """Assign a train/test split per window, balanced in training.

    All of a window's rows (one per method) share the split. The
    training set holds floor(train_frac * minority count) windows of
    each class; everything else is test.
    """
    wids, first, row_window = np.unique(table.window_ids, return_index=True, return_inverse=True)
    window_label = table.labels[first]
    conflict = np.flatnonzero(table.labels != window_label[row_window])
    if len(conflict):
        raise ConfigError(f"window {table.window_ids[conflict[0]]} carries conflicting labels")
    # each class's windows in sorted order, the classes in order of their first window
    classes = {lab: np.flatnonzero(window_label == lab)
               for lab in dict.fromkeys(window_label.tolist())}
    for lab, members in classes.items():
        if len(members) < 5:
            raise ConfigError(f"class {lab!r} has only {len(members)} windows, need >= 5")
    if len(classes) != 2:
        raise ConfigError(f"need exactly two classes, got {sorted(classes)}")
    minority = min(len(w) for w in classes.values())
    n_train = int(train_frac * minority)
    rng = np.random.default_rng(rng_seed)
    train = np.zeros(len(wids), dtype=bool)
    for lab in sorted(classes):
        rng.shuffle(classes[lab])  # the permutation a list of the same ids would get
        train[classes[lab][:n_train]] = True
    return replace(table, split=np.where(train[row_window], "train", "test"))


# --- random forest on a single scalar feature ------------------------------

def bootstrap_draws(n_rows, n_trees, rng_seed):
    """The ``(n_trees, n_rows)`` bootstrap row indices of a forest: tree
    t draws ``n_rows`` indices from its own generator, the t-th child of
    ``SeedSequence(rng_seed)``. Held in the smallest unsigned dtype that
    fits, since one evaluation keeps them for all its forests."""
    draws = np.empty((n_trees, n_rows), dtype=np.min_scalar_type(max(n_rows - 1, 0)))
    for t, seq in enumerate(np.random.SeedSequence(rng_seed).spawn(n_trees)):
        draws[t] = np.random.default_rng(seq).integers(0, n_rows, size=n_rows)
    return draws


def _bootstrap_counts(x, y, draws):
    """Every tree's bootstrap sample as counts per distinct value.

    Returns the values each tree drew, sorted within the tree and
    concatenated in tree order; the 0-prefixed cumulative sums of their
    row counts and of their AF counts; and each tree's first position,
    with the total appended. A node of any tree is a range of this
    flat array that never crosses a tree boundary.
    """
    uniq, code = np.unique(x, return_inverse=True)
    m = len(uniq)
    # one bin per (tree, value, label): bin 2 * (t * m + value) + label
    row_bin = 2 * code + y
    n_trees = len(draws)
    keys = row_bin[draws]
    keys += np.arange(0, 2 * m * n_trees, 2 * m)[:, None]
    bins = np.bincount(keys.ravel(), minlength=2 * m * n_trees)
    del keys
    rows, af = bins[::2], bins[1::2]
    rows += af
    present = np.flatnonzero(rows)
    rows, af = rows[present], af[present]
    del bins
    cum_rows = np.zeros(len(present) + 1, dtype=np.int64)
    np.cumsum(rows, out=cum_rows[1:])
    cum_af = np.zeros(len(present) + 1, dtype=np.int64)
    np.cumsum(af, out=cum_af[1:])
    tree_start = np.searchsorted(present, np.arange(n_trees + 1) * m)
    return uniq[present % m], cum_rows, cum_af, tree_start


def _best_splits(cum_rows, cum_af, lo, hi, rows, af):
    """The split position of each node ``[lo, hi)``: the last value of
    its left child. The candidates of all nodes lie end to end."""
    n_cand = hi - lo - 1
    first = np.cumsum(n_cand)
    first -= n_cand
    # after the value at position j, a node's left side holds the rows
    # up to cum_rows[j + 1]
    after = np.arange(first[-1] + n_cand[-1])
    after += np.repeat(lo + 1 - first, n_cand)
    n_left = cum_rows[after]
    n_left -= np.repeat(cum_rows[lo], n_cand)
    af_left = cum_af[after]
    af_left -= np.repeat(cum_af[lo], n_cand)
    del after
    # (n0*g0 + n1*g1) / total with g = 2p(1-p), p = k / n; a side always
    # holds a value, so n >= 1
    score = np.zeros(len(n_left))
    p, q = np.empty(len(n_left)), np.empty(len(n_left))
    _add_weighted_gini(n_left, af_left, score, p, q)
    np.subtract(np.repeat(rows, n_cand), n_left, out=n_left)
    np.subtract(np.repeat(af, n_cand), af_left, out=af_left)
    _add_weighted_gini(n_left, af_left, score, p, q)
    del n_left, af_left, p, q
    score /= np.repeat(rows, n_cand)
    return lo + _first_best(score, first, n_cand) - first


def _first_best(score, first, n_cand):
    """The index in ``score`` of each node's split, where node i's
    candidates are ``score[first[i]:first[i] + n_cand[i]]``, as a scan
    in order picks it: it moves on only to a score lower by more than
    1e-15.

    The scan ends on a node's first minimum unless an earlier score lies
    within 1e-15 above it. So take each node's first score that does
    (the minimum itself qualifies) and replay the scan on the nodes
    where that score is not the minimum.
    """
    best = np.minimum.reduceat(score, first)
    near = np.flatnonzero(score - 1e-15 <= np.repeat(best, n_cand))
    pick = near[np.searchsorted(near, first)]
    for i in np.flatnonzero(score[pick] != best):
        pick[i] = first[i] + _sequential_best(score[first[i]:first[i] + n_cand[i]])
    return pick


def _sequential_best(scores):
    """The split a scan in order picks: it moves on only to a score
    lower by more than 1e-15."""
    best = None
    for i, score in enumerate(scores.tolist()):
        if best is None or score < best - 1e-15:
            best, best_i = score, i
    return best_i


def _add_weighted_gini(n, k, score, p, q):
    """Add n * ((2 * p) * (1 - p)) with p = k / n to ``score``; ``p``
    and ``q`` are scratch arrays."""
    np.divide(k, n, out=p)
    np.subtract(1.0, p, out=q)
    p *= 2.0
    p *= q
    p *= n
    score += p


def _grow_forest(values, cum_rows, cum_af, tree_start, max_depth):
    """Grow every tree at once, one depth per pass over all live nodes.

    A node is a range ``[lo, hi)`` of the flat value array. It is a leaf
    at ``max_depth``, when pure or when it holds one value; its leaf is
    its AF fraction. Otherwise it splits where the Gini score of its
    two sides is lowest. Returns the thresholds and the leaves of all
    trees, each tree in order and the trees in order, and the bounds of
    each tree in both arrays.
    """
    lo, hi = tree_start[:-1], tree_start[1:]
    leaf_at, leaves = [], []
    split_at, thresholds = [np.empty(0, dtype=np.int64)], [np.empty(0)]
    for depth in itertools.count():
        rows = cum_rows[hi] - cum_rows[lo]
        af = cum_af[hi] - cum_af[lo]
        grow = (af > 0) & (af < rows) & (hi - lo > 1) & (depth < max_depth)
        done = ~grow
        leaf_at.append(lo[done])
        leaves.append(af[done] / rows[done])
        if not grow.any():
            break
        lo, hi = lo[grow], hi[grow]
        j = _best_splits(cum_rows, cum_af, lo, hi, rows[grow], af[grow])
        a, b = values[j], values[j + 1]
        thr = (a + b) / 2.0
        # the midpoint of two adjacent floats may round onto the upper one
        thresholds.append(np.where(thr < b, thr, a))
        split_at.append(j)
        lo, hi = np.concatenate((lo, j + 1)), np.concatenate((j + 1, hi))
    # in-order within a tree is the order of flat positions
    leaf_at, split_at = np.concatenate(leaf_at), np.concatenate(split_at)
    leaf_order, split_order = np.argsort(leaf_at), np.argsort(split_at)
    return (
        np.concatenate(thresholds)[split_order],
        np.concatenate(leaves)[leaf_order],
        np.searchsorted(split_at[split_order], tree_start).tolist(),
        np.searchsorted(leaf_at[leaf_order], tree_start).tolist(),
    )


def train_rf(
    table: FeatureTable,
    method: str,
    draws: np.ndarray,
    max_depth: int = 4,
) -> RandomForestModel:
    """Bootstrap-sampled threshold trees over the scalar DAF feature,
    averaged into one step function; ``draws`` holds each tree's
    bootstrap row indices (``bootstrap_draws`` of the method's training
    row count). A feature with a single value predicts the training AF
    fraction."""
    x, y = table.select(method=method, split="train")
    if len(x) == 0:
        raise ConfigError(f"no training rows for method {method!r}")
    if draws.shape[1] != len(x):
        raise ValueError(f"draws for {draws.shape[1]} rows, method {method!r} has {len(x)}")
    if len(np.unique(x)) == 1:
        return RandomForestModel(np.empty(0), np.array([np.mean(y)]), method, len(x))
    thresholds, leaves, thr_cut, leaf_cut = _grow_forest(
        *_bootstrap_counts(x, y, draws), max_depth
    )
    breaks = np.unique(thresholds)
    # every tree is constant between breaks: take its leaf at each
    # break and above the last, adding the trees in order
    points = np.append(breaks, np.inf)
    total = np.zeros(len(points))
    for t in range(len(draws)):
        thr = thresholds[thr_cut[t]:thr_cut[t + 1]]
        total += leaves[leaf_cut[t]:leaf_cut[t + 1]][np.searchsorted(thr, points)]
    return RandomForestModel(breaks, total / len(draws), method, len(x))


def predict_proba(model: RandomForestModel, x) -> np.ndarray:
    return model.probs[np.searchsorted(model.breaks, np.asarray(x, dtype=np.float64))]


def auroc_rank(scores, labels) -> float:
    """AUROC via the rank statistic; ties contribute 0.5."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels)
    n_pos = int(np.sum(labels == 1))
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        return 0.5
    order = np.argsort(scores, kind="stable")
    ranked = scores[order]
    # each run of equal scores shares the mean of its 1-based ranks
    edges = np.flatnonzero(np.r_[True, ranked[1:] != ranked[:-1], True])
    ranks = np.repeat((edges[:-1] + 1 + edges[1:]) / 2.0, np.diff(edges))
    r_pos = float(np.sum(ranks[labels[order] == 1]))  # sums of halves are exact in any order
    return (r_pos - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)


def evaluate_model(model: RandomForestModel, table: FeatureTable) -> ClassifierMetrics:
    """F1 at the default probability threshold plus rank-statistic AUROC."""
    x_test, y_test = table.select(method=model.method, split="test")
    if len(x_test) == 0:
        raise ConfigError(f"no test rows for method {model.method!r}")
    probs = predict_proba(model, x_test)
    pred = probs >= DEFAULT_THRESHOLD
    tp = int(np.sum(pred & (y_test == 1)))
    fp = int(np.sum(pred & (y_test == 0)))
    fn = int(np.sum(~pred & (y_test == 1)))
    sens = tp / (tp + fn) if tp + fn else 0.0
    ppv = tp / (tp + fp) if tp + fp else 0.0
    f1 = 2 * sens * ppv / (sens + ppv) if sens + ppv else 0.0
    return ClassifierMetrics(
        f1=f1,
        auroc=auroc_rank(probs, y_test),
        n_train=model.n_train,
        n_test=len(x_test),
    )


def rank_methods(metrics: dict) -> list:
    """AUROC descending, F1 as tie-break, then method name."""
    return sorted(metrics, key=lambda m: (-metrics[m].auroc, -metrics[m].f1, m))
