import os
import sys

import pytest

from chroma.core import EdgeColoredGraph

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def edge_graph_builds(monkeypatch):
    """The rows, as given, of every EdgeColoredGraph constructor run from
    here on in the test, one entry per run."""
    calls = []
    build = EdgeColoredGraph.__post_init__

    def counted(self):
        calls.append(self.edges)
        build(self)

    monkeypatch.setattr(EdgeColoredGraph, "__post_init__", counted)
    return calls
