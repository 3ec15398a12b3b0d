from functools import cached_property

import numpy as np
import pytest

from dictatest import rng as rng_module
from dictatest.functions import BooleanFunction


class NoIntegers(np.random.Generator):
    """A Generator whose integers method fails; Generator itself is an
    immutable extension type, so its method cannot be patched in place."""

    def integers(self, *args, **kwargs):
        raise AssertionError("Generator.integers was called")


@pytest.fixture
def no_integers(monkeypatch):
    """Every generator that rng.derive_rng makes fails on integers.  Names
    bound by ``from dictatest.rng import derive_rng`` keep the real one."""
    monkeypatch.setattr(
        rng_module, "derive_rng",
        lambda *key: NoIntegers(np.random.PCG64(np.random.SeedSequence(key))))


@pytest.fixture
def folded_computations(monkeypatch):
    """The functions whose ``folded`` property is computed, one entry per
    computation; the cached value is still read without an entry."""
    calls = []
    compute = BooleanFunction.folded.func
    counted = cached_property(lambda f: calls.append(f) or compute(f))
    counted.__set_name__(BooleanFunction, "folded")
    monkeypatch.setattr(BooleanFunction, "folded", counted)
    return calls
