"""The contract on a seeded adversarial corpus: every subcommand, on graphs
whose weights span up to 600 decades, gives the right answer or exits 2
(``oracles.contract_census``, against the exact rational solve).

Tracebacks and an inf or nan printed with exit 0 must not occur. Each class
of wrong answers with exit 0 that still occurs is a strict ``xfail`` naming
the ROADMAP item that removes it, so a fix has to remove its mark.
Refusals keep the contract; they are gated only where the grounded factor
declines, where every Laplacian-side subcommand must refuse.
"""

import pytest

from graphsimplex import build_laplacian, parse_graph

from oracles import contract_census, contract_corpus


@pytest.fixture(scope="module")
def census():
    return contract_census(0)


@pytest.mark.parametrize("name", ["traceback", "inf or nan on exit 0"])
def test_never(census, name):
    assert census.get(name, []) == []


WRONG = {
    "resistance wrong": "ROADMAP item 3: spectral and one-ground routes lose digits",
    "spanning-trees wrong": "ROADMAP items 2 and 3: the tree count loses digits",
    "reduce wrong": "ROADMAP item 1: Cholesky pivots formed as differences",
    "metric-check exit 1": "ROADMAP item 3: resistances off by more than the slack",
    "verify-identity exit 1": "ROADMAP item 5: the identity's residual is not unit-free",
}


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, reason=reason))
    for name, reason in WRONG.items()])
def test_no_wrong_answer_on_exit_0(census, name):
    assert census.get(name, []) == []


LAPLACIAN_SIDE = ("pinv", "resistance", "embed", "blocks", "metric-check",
                  "verify-identity", "spanning-trees")


@pytest.mark.parametrize("command", LAPLACIAN_SIDE)
def test_every_declined_graph_is_refused(census, command):
    # where the grounded factor's screen declines, no Laplacian-side answer
    # is given; the eigen fallback answered these, none within 1e-11
    declined = [k for k, (text, _) in enumerate(contract_corpus(0))
                if build_laplacian(parse_graph(text)).factor is None]
    assert declined
    assert set(declined) <= set(census.get(f"{command} refused", []))
