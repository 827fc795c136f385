import random

import pytest

from cliffordefb import Algebra

ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def algebras():
    """Shared real-field algebra contexts (caches warm across tests)."""
    return {m: Algebra(m) for m in range(1, 6)}


@pytest.fixture()
def rng():
    return random.Random(20240901)


def dual_gamma_word(rep, indices):
    """Dense product of the duals gamma^i = (-1)^(i+1) gamma_i, a reference."""
    word = rep.gamma_word(indices)
    return -word if sum(1 for i in indices if i % 2 == 0) & 1 else word


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
