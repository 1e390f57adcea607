from pathlib import Path

import pytest
from hypothesis import settings

from tsol.core import parse_tournament
from tsol.reductions import cnf

DATA = Path(__file__).parent / "data"

# the mutation gate (tests/mutants.py) selects this profile: no example
# database and a fixed seed, so a mutant's verdict does not depend on
# earlier runs
settings.register_profile("mutants", database=None, derandomize=True)


@pytest.fixture(scope="session")
def fig1():
    """The 5-alternative worked example (TEQ {a,b,c}, Banks {a,b,c,d})."""
    return parse_tournament((DATA / "fig1.txt").read_text())


@pytest.fixture(scope="session")
def fig_cnf():
    """(-p | s | q) & (p | s | r) & (p | q | -r)"""
    return cnf(("-p", "s", "q"), ("p", "s", "r"), ("p", "q", "-r"))


@pytest.fixture(scope="session")
def data_dir():
    return DATA
