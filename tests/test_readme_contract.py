"""Guards that the README's code snippets keep working as written.

The README is the real file at the repository root; every fenced
``python`` block is extracted and executed verbatim (each in a fresh
namespace), so documented behaviour cannot silently drift from the
library.  A few load-bearing claims are additionally pinned as
explicit tests.
"""

import re
from pathlib import Path

import pytest

import repro

README = Path(__file__).resolve().parent.parent / "README.md"

_PYTHON_BLOCK = re.compile(r"```python\n(.*?)```", re.DOTALL)


def python_snippets() -> list[str]:
    text = README.read_text(encoding="utf-8")
    return [match.group(1) for match in _PYTHON_BLOCK.finditer(text)]


class TestReadmeFile:
    def test_readme_exists_and_advertises_the_facade(self):
        assert README.exists(), "README.md is missing"
        text = README.read_text(encoding="utf-8")
        assert "repro.compile(" in text
        assert ".on(" in text
        assert "--json" in text
        assert "PODS 2020" in text

    def test_readme_has_executable_snippets(self):
        assert len(python_snippets()) >= 3


@pytest.mark.parametrize(
    "index,snippet",
    list(enumerate(python_snippets())),
    ids=lambda value: f"block{value}" if isinstance(value, int) else "")
def test_readme_snippet_executes(index, snippet):
    """Every fenced python block runs as written, however many exist."""
    namespace: dict = {}
    exec(compile(snippet, f"README.md[python #{index}]", "exec"),
         namespace)


class TestReadmeQuickstart:
    """The quickstart's numbers, pinned independently of the prose."""

    def test_earthquake_quickstart(self):
        compiled = repro.compile(
            "Earthquake(c, Flip<0.1>) :- City(c, r).")
        data = repro.Instance.of(repro.Fact("City", ("Napa", 0.03)))
        result = compiled.on(data).exact()
        assert result.marginal(
            repro.Fact("Earthquake", ("Napa", 1))) == pytest.approx(0.1)
        parallel = compiled.on(data, parallel=True).exact()
        assert parallel.pdb.allclose(result.pdb)
        assert compiled.analyze().weakly_acyclic

    def test_heights_snippet(self):
        heights = repro.compile(
            "PHeight(p, Normal<mu, s2>) :- PCountry(p, c), "
            "CMoments(c, mu, s2).")
        world = repro.Instance.from_dict({
            "PCountry": [("ada", "NL")],
            "CMoments": [("NL", 183.8, 49.0)]})
        mc = heights.on(world, seed=0).sample(2000)
        values = mc.pdb.values_of(
            lambda D: [f.args[1] for f in D.facts_of("PHeight")])
        from repro.measures import summarize
        assert summarize(values).mean_within(183.8)

    def test_package_docstring_example(self):
        compiled = repro.compile(
            "Earthquake(c, Flip<0.1>) :- City(c, r).")
        D0 = repro.Instance.of(repro.Fact("City", ("Napa", 0.03)))
        result = compiled.on(D0).exact()
        assert round(result.marginal(
            repro.Fact("Earthquake", ("Napa", 1))), 3) == 0.1


class TestWeightedPdbQueryLayer:
    def test_lifted_queries_on_weighted_pdb(self):
        from repro.query.aggregates import Aggregate, agg_count
        from repro.query import (aggregate_distribution,
                                 boolean_probability)
        from repro.query.relalg import scan
        compiled = repro.compile("""
            A(Flip<0.3>) :- true.
            B(Flip<0.5>) :- A(1).
        """)
        result = compiled.on(seed=0).observe(
            repro.observe("A", 1)).posterior(method="likelihood",
                                             n=1500)
        b_count = Aggregate(scan("B", "v"), (), {"n": agg_count()})
        counts = aggregate_distribution(result.pdb, b_count)
        assert counts.total_mass() == pytest.approx(1.0)
        assert counts.mass(1) == pytest.approx(1.0)  # B always derived
        b_one = scan("B", "v").where(v=1)
        assert abs(boolean_probability(result.pdb, b_one)
                   - 0.5) < 0.05
