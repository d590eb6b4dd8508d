"""Shared pytest hooks and fixtures.

test_acceptance.py registers one line per acceptance criterion in
ACCEPTANCE_LINES; the hook below replays them as a dedicated section at
the end of the run so the checklist survives output capturing.
`blocks_built` records the correlation blocks a module builds.
"""

import pytest

ACCEPTANCE_LINES = []


@pytest.fixture
def blocks_built(monkeypatch):
    """watch(module): the list, growing as the test runs, of
    (m_x, m_z, rows, cols) for each correlation block that the module
    builds through its `build_correlation_matrix`, in build order."""

    def watch(module):
        built = []
        real = module.build_correlation_matrix

        def recording(grid, kernel, rows=None, cols=None):
            block = real(grid, kernel, rows, cols)
            built.append((grid.m_x, grid.m_z, *block.shape))
            return block

        monkeypatch.setattr(module, "build_correlation_matrix", recording)
        return built

    return watch


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
