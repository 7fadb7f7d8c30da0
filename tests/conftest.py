import pytest

from ladderdet import Ladder, parse_ascii

from helpers import L1_ASCII, L2_ASCII, L3_ASCII


@pytest.fixture
def l1():
    return parse_ascii(L1_ASCII)


@pytest.fixture
def l2():
    return parse_ascii(L2_ASCII)


@pytest.fixture
def l3():
    return parse_ascii(L3_ASCII)


@pytest.fixture
def cell_reads(monkeypatch):
    """The ladders whose ``cells`` are read while the test runs, in order."""
    reads, cells = [], Ladder.cells
    monkeypatch.setattr(Ladder, "cells", property(lambda ladder: reads.append(ladder) or cells.fget(ladder)))
    return reads
