"""Unit tests for statistics containers."""

from repro.stats.counters import CounterSet, Histogram


class TestCounterSet:
    def test_default_zero(self):
        c = CounterSet()
        assert c["missing"] == 0
        assert "missing" not in c

    def test_bump_and_set(self):
        c = CounterSet()
        c.bump("a")
        c.bump("a", 4)
        c["b"] = 7
        assert c["a"] == 5 and c["b"] == 7

    def test_merge(self):
        a, b = CounterSet(), CounterSet()
        a.bump("x", 2)
        b.bump("x", 3)
        b.bump("y", 1)
        a.merge(b)
        assert a["x"] == 5 and a["y"] == 1

    def test_rate(self):
        c = CounterSet()
        c["hits"] = 30
        c["total"] = 60
        assert c.rate("hits", "total") == 0.5
        assert c.rate("hits", "total", scale=100) == 50.0
        assert c.rate("hits", "absent") == 0.0

    def test_names_sorted(self):
        c = CounterSet()
        c.bump("b")
        c.bump("a")
        assert list(c.names()) == ["a", "b"]

    def test_as_dict_snapshot(self):
        c = CounterSet()
        c.bump("a")
        snap = c.as_dict()
        c.bump("a")
        assert snap["a"] == 1 and c["a"] == 2


class TestHistogram:
    def test_mean(self):
        h = Histogram()
        h.add(2)
        h.add(4)
        assert h.mean == 3.0

    def test_weighted(self):
        h = Histogram()
        h.add(10, weight=3)
        assert h.count == 3 and h.total == 30

    def test_percentile(self):
        h = Histogram()
        for v in range(1, 101):
            h.add(v)
        assert h.percentile(50) == 50
        assert h.percentile(100) == 100
        assert Histogram().percentile(50) == 0

    def test_items_sorted(self):
        h = Histogram()
        h.add(5)
        h.add(1)
        h.add(5)
        assert list(h.items()) == [(1, 1), (5, 2)]
