import pathlib

import pytest

from ltw import words

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
GOLDEN = pathlib.Path(__file__).parent / "golden"

# filled by the acceptance gate; echoed after the run so the verdict lines
# survive output capture
ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(autouse=True)
def _reset_equality():
    # every test starts from the default word-equality configuration
    words.set_equality_seed(0)
    yield
    words.set_equality_seed(0)


@pytest.fixture
def fixtures():
    return FIXTURES


@pytest.fixture
def golden():
    return GOLDEN
