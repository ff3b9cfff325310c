"""Shared fixtures for the benchmark suite.

The workload matrix (5 programs x 5 settings) is expensive, and both the
Fig. 9 and Table 6 benches consume it — so it is computed once per
session, and its ``results.json`` section is derived from it once.
"""

import pytest

from repro.bench.export import fig9_table6
from repro.bench.runner import WorkloadRunner


@pytest.fixture(scope="session")
def workload_matrix():
    """{workload: {setting: RunResult}} for the full evaluation matrix."""
    return WorkloadRunner(scale=0.5).run_matrix()


@pytest.fixture(scope="session")
def workload_section(workload_matrix):
    """The matrix's Fig. 9 / Table 6 section, as ``results.json`` has it."""
    return fig9_table6(workload_matrix)
