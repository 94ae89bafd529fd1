"""The public surface: import paths, exports, table constructor errors, syntax floor."""

import ast
import importlib
from pathlib import Path

import numpy as np
import pytest

import multimcc
from multimcc import ValidationError, ZeroTotalError

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "multimcc").glob("*.py"))

# Module -> the table names it exports, each also exported by the package.
TABLE_EXPORTS = {
    "metrics": ("MAX_CLASSES", "ConfusionCounts2", "ProbTable2", "normalize_counts"),
    "paired": ("MAX_JOINT_CLASSES", "JointCounts3", "ProbTable3", "normalize_joint_counts"),
}


def counts2(cells, labels=None):
    return multimcc.metrics.ConfusionCounts2(cells, labels=labels)


def counts3(cells, labels=None):
    return multimcc.paired.JointCounts3(cells, labels=labels)


def prob2(pi):
    return multimcc.metrics.ProbTable2(pi)


def prob3(pi):
    return multimcc.paired.ProbTable3(pi)


def one_hot(shape):
    cells = np.zeros(shape, dtype=np.int64)
    cells[(0,) * len(shape)] = 1
    return cells


def too_many_classes(rank, r):
    """An r**rank array that takes no memory; the shape check rejects it first."""
    return np.broadcast_to(np.int8(0), (r,) * rank)


# (constructor, argument, exception type, exact message)
CONSTRUCTOR_ERRORS = [
    (counts2, np.zeros((2, 3), dtype=int), ValidationError,
     "a counts table must be a square matrix, got shape (2, 3)"),
    (counts2, one_hot((2, 2, 2)), ValidationError,
     "a counts table must be a square matrix, got shape (2, 2, 2)"),
    (counts2, np.array([[4]]), ValidationError,
     "a counts table needs at least 2 classes, got 1"),
    (counts2, too_many_classes(2, 1001), ValidationError,
     "a counts table with r=1001 exceeds the dense-table limit of 1000"),
    (counts2, np.array([[3.5, 1.0], [0.0, 2.0]]), ValidationError,
     "counts must be whole numbers"),
    (counts2, np.array([[np.nan, 1.0], [0.0, 2.0]]), ValidationError,
     "counts must be whole numbers"),
    (counts2, np.array([[3, -1], [0, 2]]), ValidationError,
     "counts must be non-negative"),
    (counts2, np.zeros((2, 2), dtype=int), ZeroTotalError,
     "counts table is all zeros"),
    (counts3, np.zeros((2, 2), dtype=int), ValidationError,
     "a joint counts table must be an r*r*r array, got shape (2, 2)"),
    (counts3, np.zeros((2, 2, 3), dtype=int), ValidationError,
     "a joint counts table must be an r*r*r array, got shape (2, 2, 3)"),
    (counts3, np.ones((1, 1, 1), dtype=int), ValidationError,
     "a joint counts table needs at least 2 classes, got 1"),
    (counts3, too_many_classes(3, 201), ValidationError,
     "a joint counts table with r=201 exceeds the dense joint-table limit of 200"),
    (counts3, np.full((2, 2, 2), 1.5), ValidationError,
     "counts must be whole numbers"),
    (counts3, -one_hot((2, 2, 2)), ValidationError,
     "counts must be non-negative"),
    (counts3, np.zeros((2, 2, 2), dtype=int), ZeroTotalError,
     "joint counts table is all zeros"),
    (prob2, np.full((2, 3), 1 / 6), ValidationError,
     "a probability table must be a square matrix, got shape (2, 3)"),
    (prob2, np.array([[1.0]]), ValidationError,
     "a probability table needs at least 2 classes, got 1"),
    (prob2, too_many_classes(2, 1001), ValidationError,
     "a probability table with r=1001 exceeds the dense-table limit of 1000"),
    (prob2, np.array([[0.6, -0.1], [0.3, 0.2]]), ValidationError,
     "cell probabilities must lie in [0, 1]"),
    (prob2, np.array([[np.nan, 0.0], [0.0, 1.0]]), ValidationError,
     "cell probabilities must lie in [0, 1]"),
    (prob2, np.array([[0.5, 0.25], [0.125, 0.0]]), ValidationError,
     "cell probabilities sum to 0.875, not 1"),
    (prob3, np.full((2, 2), 0.25), ValidationError,
     "a joint probability table must be an r*r*r array, got shape (2, 2)"),
    (prob3, np.ones((1, 1, 1)), ValidationError,
     "a joint probability table needs at least 2 classes, got 1"),
    (prob3, too_many_classes(3, 201), ValidationError,
     "a joint probability table with r=201 exceeds the dense joint-table limit of 200"),
    (prob3, np.full((2, 2, 2), 1.5), ValidationError,
     "cell probabilities must lie in [0, 1]"),
    (prob3, np.full((2, 2, 2), 0.25), ValidationError,
     "cell probabilities sum to 2.0, not 1"),
]


@pytest.mark.parametrize("make, arg, error, message", CONSTRUCTOR_ERRORS,
                         ids=[f"{make.__name__}: {text}" for make, *_, text in CONSTRUCTOR_ERRORS])
def test_table_constructor_error_texts(make, arg, error, message):
    with pytest.raises(ValidationError) as info:
        make(arg)
    assert type(info.value) is error
    assert str(info.value) == message


@pytest.mark.parametrize("make, cells", [(counts2, one_hot((3, 3))), (counts3, one_hot((2, 2, 2)))])
def test_counts_label_count_error_text(make, cells):
    with pytest.raises(ValidationError) as info:
        make(cells, labels=("only-one",))
    assert str(info.value) == f"expected {cells.shape[0]} class labels, got 1"


@pytest.mark.parametrize("module, names", TABLE_EXPORTS.items())
def test_table_names_import_from_their_modules(module, names):
    mod = importlib.import_module(f"multimcc.{module}")
    for name in names:
        assert name in mod.__all__
        assert getattr(multimcc, name) is getattr(mod, name)


def test_package_exports_each_name_once():
    assert len(multimcc.__all__) == len(set(multimcc.__all__))
    for name in multimcc.__all__:
        assert hasattr(multimcc, name)


def test_ranks_are_separate_types():
    from multimcc import ConfusionCounts2, JointCounts3, ProbTable2, ProbTable3

    for a, b in [(ConfusionCounts2, JointCounts3), (ProbTable2, ProbTable3)]:
        assert not issubclass(a, b) and not issubclass(b, a)


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_sources_parse_as_python_3_10(path):
    """pyproject.toml promises Python 3.10; syntax from 3.11 or later fails here."""
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
