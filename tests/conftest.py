import random

import pytest

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.write_line("")
        terminalreporter.write_line("acceptance criteria:")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

from brauer import FiniteField, Place, Poly, RatFunc, valuation


@pytest.fixture
def rng():
    return random.Random(20260826)


class GuardPassed(Exception):
    """Raised in place of the build once the work guard lets a call pass."""


@pytest.fixture
def stop_past_guard(monkeypatch):
    """Make a passing check_work raise GuardPassed, so that a call at its
    bound passes the guard but builds nothing; one past the bound still
    raises TableSizeError.  Not a ValueError, so the CLI does not catch it."""
    from brauer import cohomology, conic, parsing
    real = cohomology.check_work

    def check(*args, **kwargs):
        real(*args, **kwargs)
        raise GuardPassed(args)

    for module in (cohomology, conic, parsing):
        monkeypatch.setattr(module, "check_work", check)
    return GuardPassed


@pytest.fixture
def wide_key_ops(monkeypatch):
    """A list that records (op name, field) for every _kmul, _kpow and _kinv
    call on a field of degree > 1 while the test runs."""
    seen = []
    for name in ("_kmul", "_kpow", "_kinv"):
        op = getattr(FiniteField, name)

        def watched(self, *args, op=op, name=name):
            if self.d > 1:
                seen.append((name, self))
            return op(self, *args)

        monkeypatch.setattr(FiniteField, name, watched)
    return seen


def random_poly(rng, F, max_deg=4, nonzero=True):
    while True:
        f = Poly(F, [rng.randrange(F.order)
                     for _ in range(rng.randrange(1, max_deg + 2))])
        if not nonzero or not f.is_zero():
            return f


def random_ratfunc(rng, F, max_deg=4):
    return RatFunc(random_poly(rng, F, max_deg), random_poly(rng, F, max_deg))


def random_place(rng, F, max_deg=2):
    while True:
        f = random_poly(rng, F, max_deg).monic()
        if f.degree >= 1 and f.is_irreducible():
            return Place(F, f)


def local_test_places(rng, F, degrees=(1, 2, 3)):
    """One random finite place of each given degree, then infinity."""
    places = []
    for deg in degrees:
        while True:
            f = Poly(F, [rng.randrange(F.order) for _ in range(deg)] + [1])
            if f.is_irreducible():
                places.append(Place(F, f))
                break
    return places + [Place.infinity(F)]


def random_unit_at(rng, F, P, max_deg=4):
    while True:
        u = random_ratfunc(rng, F, max_deg)
        if not u.is_zero() and valuation(u, P) == 0:
            return u
