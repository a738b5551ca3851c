"""The shipped fixture files must be exactly what the generator produces;
nothing in them is hand-entered."""

import pytest

from clusterscatter.cluster_core import initial_seed, seed_mutate
from clusterscatter.fixtures import FILES, fixture_text, load_fixture
from clusterscatter.fixtures.generate import B2, CHART_WORD, chart_rows, generate


def test_regeneration_reproduces_shipped_bytes(tmp_path):
    paths = {p.name: p for p in generate(tmp_path)}
    assert set(paths) == set(FILES)
    for name in FILES:
        assert paths[name].read_text() == fixture_text(name), name


def test_unknown_fixture_name():
    with pytest.raises(KeyError):
        fixture_text("no_such.json")


def test_loaded_fixtures_parse():
    for name in FILES:
        assert isinstance(load_fixture(name), dict)


def test_chart_rows_mutate_each_letter_once_without_the_cluster(monkeypatch):
    """The rows come from one walk from the chart, which mutates a
    coefficient-only seed once per letter: no exchange relation is solved
    for a row."""
    seen = []

    def spy(s, k):
        seen.append((s.cluster, k))
        return seed_mutate(s, k)

    monkeypatch.setattr("clusterscatter.cluster_core.seed_mutate", spy)
    assert chart_rows(initial_seed(B2)) == load_fixture("b2_chart.json")["rows"]
    assert seen == [(None, k) for k in CHART_WORD]
