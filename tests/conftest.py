import os
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fractions import Fraction

import nsforge
from nsforge import PeriodMatrix, QQi, TwoForm


@pytest.fixture(autouse=True, scope="session")
def _subprocesses_import_the_package_under_test():
    """`python -m nsforge` children find the package also when only pytest's `pythonpath` did."""
    src = str(Path(nsforge.__file__).resolve().parents[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        yield


def type22_class():
    """The dimension-2, exponent-2 class in n = 4 used as the golden example."""
    return TwoForm.from_coeffs(4, {
        (2, 7): 1, (2, 6): -1, (1, 4): 1, (1, 5): -1,
        (0, 5): 1, (3, 6): 1, (0, 4): -1, (3, 7): -1,
    })


def constrained_shape_tau(t1, t2, t3, t4, t5, t6):
    """The 6-parameter family of period matrices detecting type22_class."""
    rows = [
        [t1, t2, t3, t4],
        [t2, t1, t4, t3],
        [t3, t4, t5, t6],
        [t4, t3, t6, t5],
    ]
    return PeriodMatrix.exact(rows)


def sample_shape_tau():
    return constrained_shape_tau(
        QQi(Fraction(1, 3), 2),
        QQi(Fraction(1, 5), Fraction(1, 7)),
        QQi(Fraction(2, 3), Fraction(1, 2)),
        QQi(Fraction(-1, 4), Fraction(1, 3)),
        QQi(Fraction(1, 9), 3),
        QQi(Fraction(3, 7), Fraction(2, 5)),
    )


@pytest.fixture
def eta0():
    return type22_class()


@pytest.fixture
def shape_tau():
    return sample_shape_tau()


@pytest.fixture
def fake_pool(monkeypatch):
    """Replace ProcessPoolExecutor by an in-process pool; returns the worker counts asked for."""
    import concurrent.futures

    created = []

    class InProcessPool:
        def __init__(self, max_workers=None):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable):
            return list(map(fn, iterable))

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    return created
