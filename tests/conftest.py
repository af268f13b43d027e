import numpy as np
import pytest

from qmgm.benchmark import DgpVariant, generate_sample
from qmgm.core import (Dataset, VariableSpec, _blas_thread_controls,
                       validate_and_standardize)
from qmgm.io import save_csv

DGP_SCHEMA = "\n".join(
    [f"Y{i} continuous" for i in range(1, 6)]
    + [f"Y{i} count" for i in range(6, 11)]) + "\n"


@pytest.fixture(scope="session")
def dgp_500():
    """One validated main-variant sample, shared across tests."""
    dataset, truth = generate_sample(DgpVariant("main", 500, 1))
    return validate_and_standardize(dataset), truth


@pytest.fixture()
def small_csv(tmp_path):
    """A generator sample (n=120, seed 2) as a CSV file and its schema file."""
    dataset, _ = generate_sample(DgpVariant("main", 120, 2))
    csv_path = tmp_path / "data.csv"
    save_csv(dataset, csv_path)
    schema_path = tmp_path / "schema.txt"
    schema_path.write_text(DGP_SCHEMA, encoding="utf-8")
    return csv_path, schema_path


@pytest.fixture()
def tiny_mixed():
    rng = np.random.default_rng(3)
    n = 60
    x = rng.normal(size=n)
    c = rng.poisson(2.0, size=n).astype(float)
    b = (rng.random(n) < 0.4).astype(float)
    values = np.column_stack([x, 0.5 * x + rng.normal(size=n), c, b])
    schema = (VariableSpec("x1", "continuous"), VariableSpec("x2", "continuous"),
              VariableSpec("c1", "count"), VariableSpec("b1", "binary"))
    return Dataset(values, schema)


@pytest.fixture()
def blas_threads():
    """Reader of the thread count of every BLAS library in this process.

    Every library is set to 2 threads for the test, so that a pin to 1
    shows; the counts from before the test are restored after it."""
    controls = _blas_thread_controls()
    if not controls:
        pytest.skip("no OpenBLAS library found")
    before = [get() for get, _ in controls]
    for _, put in controls:
        put(2)
    try:
        yield lambda: [get() for get, _ in controls]
    finally:
        for (_, put), count in zip(controls, before):
            put(count)
