"""Cross-validation fold planning with non-overlapping test blocks.

One seeded shuffle of the patient ids; fold i takes the i-th contiguous
block of `test` ids as its test set, so test sets are disjoint by
construction. The remaining ids fill train and validation in shuffle
order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class DatasetSplit:
    train_ids: tuple[str, ...]
    val_ids: tuple[str, ...]
    test_ids: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "train_ids", tuple(self.train_ids))
        object.__setattr__(self, "val_ids", tuple(self.val_ids))
        object.__setattr__(self, "test_ids", tuple(self.test_ids))
        groups = (self.train_ids, self.val_ids, self.test_ids)
        total = sum(len(g) for g in groups)
        if len(set().union(*map(set, groups))) != total:
            raise ValueError("train/val/test id lists must be pairwise disjoint")

    @property
    def all_ids(self) -> tuple[str, ...]:
        return self.train_ids + self.val_ids + self.test_ids

    def check_known(self, known, ids=None) -> None:
        """KeyError unless `known` holds each of `ids` (default: all_ids)."""
        missing = [pid for pid in (self.all_ids if ids is None else ids) if pid not in known]
        if missing:
            raise KeyError(f"split references unknown patient ids: {missing}")


@dataclass(frozen=True)
class FoldPlan:
    folds: tuple[DatasetSplit, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "folds", tuple(self.folds))
        seen: set[str] = set()
        for i, fold in enumerate(self.folds):
            overlap = seen.intersection(fold.test_ids)
            if overlap:
                raise ValueError(f"fold {i} test ids overlap earlier folds: {sorted(overlap)}")
            seen.update(fold.test_ids)


def make_folds(ids, n_folds: int, sizes: tuple[int, int, int], seed: int) -> FoldPlan:
    """Plan `n_folds` train/val/test splits of sizes (train, val, test).

    Deterministic for a given seed. Raises ValueError when the test
    blocks cannot be tiled disjointly or the sizes exceed the id count.
    """
    id_list = [str(i) for i in ids]
    if len(set(id_list)) != len(id_list):
        raise ValueError("patient ids must be unique")
    n_train, n_val, n_test = (int(s) for s in sizes)
    if n_folds < 1:
        raise ValueError("n_folds must be >= 1")
    if min(n_train, n_val, n_test) < 0:
        raise ValueError("sizes must be non-negative")
    if n_folds * n_test > len(id_list):
        raise ValueError(
            f"infeasible: {n_folds} folds x {n_test} test ids > {len(id_list)} ids"
        )
    if n_train + n_val + n_test > len(id_list):
        raise ValueError(
            f"infeasible: sizes sum {n_train + n_val + n_test} > {len(id_list)} ids"
        )

    rng = np.random.default_rng(seed)
    order = rng.permutation(len(id_list))
    shuffled = [id_list[i] for i in order]

    folds = []
    for i in range(n_folds):
        test = shuffled[i * n_test : (i + 1) * n_test]
        rest = shuffled[: i * n_test] + shuffled[(i + 1) * n_test :]
        folds.append(
            DatasetSplit(
                train_ids=tuple(rest[:n_train]),
                val_ids=tuple(rest[n_train : n_train + n_val]),
                test_ids=tuple(test),
            )
        )
    return FoldPlan(folds=tuple(folds), seed=int(seed))
