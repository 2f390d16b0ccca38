import re
from contextlib import contextmanager

import pytest
from hypothesis import Phase, settings

#: chosen by the pinned-mutant runner: a failing property is reported as found,
#: with no time spent shrinking or explaining it
settings.register_profile("mutant-guard", phases=(Phase.explicit, Phase.reuse, Phase.generate))


@pytest.hookimpl(trylast=True)
def pytest_configure(config):
    """Reject a ``-m`` expression that names an unregistered marker.

    ``--strict-markers`` checks only the markers the test files apply, so a
    mistyped name in ``-m`` would deselect every test without a word.  Runs
    last, once every plugin has registered its markers.
    """
    # keyword arguments, as in ``slow(reason="x")``, name no marker
    expr = re.sub(r"\b(?!(?:and|or|not)\()([\w.+-]+)\([^)]*\)", r"\1", config.option.markexpr)
    names = set(re.findall(r"[\w.+-]+", expr)) - {"and", "or", "not"}
    known = {re.split(r"[:(]", line, maxsplit=1)[0].strip() for line in config.getini("markers")}
    unknown = sorted(names - known)
    if unknown:
        raise pytest.UsageError(f"-m names unregistered markers: {', '.join(unknown)}")


@contextmanager
def _counting_cdf_kernel(*fams):
    """Count the CDF kernel calls of ``fams`` while the block runs.

    Yields a list that gets the row count of each call of a family's
    ``_cdf`` kernel, which ``cdf_vector`` and the generic solver both
    evaluate: a ``(K, N)`` stack is one call of K rows.  The kernels are
    restored on exit.
    """
    calls: list = []
    fams = list({id(fam): fam for fam in fams}.values())  # a shared family once
    for fam in fams:
        fam._cdf = lambda s, cdf=fam._cdf, n=fam.n_actions: (calls.append(s.size // n), cdf(s))[1]
    try:
        yield calls
    finally:
        for fam in fams:
            del fam._cdf


@pytest.fixture
def count_cdf_kernel():
    """``with count_cdf_kernel(*fams) as calls``: the rows of each CDF kernel call."""
    return _counting_cdf_kernel


@pytest.fixture
def count_solves(monkeypatch):
    """A list that gets one entry per generic-route row solve while the test runs.

    Every row solve, single or in a bound solver's stack, is one call of
    ``response._kkt_solve``, which both look up at call time.
    """
    import beliefgames.response as response

    solves: list = []
    solve = response._kkt_solve
    monkeypatch.setattr(response, "_kkt_solve", lambda *args: (solves.append(1), solve(*args))[1])
    return solves
