import types

import pytest

from gpcert import bounds
from gpcert.bounds import DomainBox
from gpcert.gp import TrainingSet, fit
from gpcert.kernels import LINEAR, MATERN32, MATERN52, SQUARED_EXPONENTIAL, KernelSpec


def se_unit(d=1):
    return KernelSpec(SQUARED_EXPONENTIAL, 1.0, tuple([1.0] * d))


def random_kernel(rng, d, families=(SQUARED_EXPONENTIAL, MATERN32, MATERN52, LINEAR)):
    family = families[rng.integers(len(families))]
    sf2 = float(rng.uniform(0.5, 4.0))
    ls = tuple(float(l) for l in rng.uniform(0.5, 2.0, size=d))
    return KernelSpec(family, sf2, ls)


def random_model(rng, spec, n, scale=3.0, noise=None):
    noise = float(rng.uniform(0.005, 0.1)) if noise is None else noise
    X = rng.uniform(-scale, scale, size=(n, spec.dim))
    y = rng.normal(0.0, 1.0, size=n)
    return fit(spec, TrainingSet(X, y, noise))


@pytest.fixture
def box1():
    return DomainBox(1, 10.0)


@pytest.fixture
def box2():
    return DomainBox(2, 10.0)


@pytest.fixture
def tau_probes(monkeypatch):
    """Records every tau that geometric_bisect probes and every report bound_constants builds.

    ``real_constants`` is the unrecorded bound_constants, for fresh reports.
    """
    record = types.SimpleNamespace(probes=[], reports=[], real_constants=bounds.bound_constants)
    real_bisect = bounds.geometric_bisect

    def bisect(feasible, lo, hi):
        return real_bisect(lambda tau: record.probes.append(tau) or feasible(tau), lo, hi)

    def constants(*args):
        record.reports.append(record.real_constants(*args))
        return record.reports[-1]

    monkeypatch.setattr(bounds, "geometric_bisect", bisect)
    monkeypatch.setattr(bounds, "bound_constants", constants)
    return record
