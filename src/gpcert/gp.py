"""Exact Gaussian-process posterior inference over a mutable training set.

Predictions follow the standard closed forms

    mu(x)      = k(x)^T (K + s_on^2 I)^{-1} y
    sigma^2(x) = k(x,x) - k(x)^T (K + s_on^2 I)^{-1} k(x)

backed by a cached lower-triangular Cholesky factor.  Models are immutable;
the episodic loop refits with :func:`add_samples`, a full :func:`fit` on the
concatenated data, once per ladder rung (the cubic refit cost is acceptable
at its data sizes).  Batch predictions run over the queries in the row
blocks of :func:`kernels._row_blocks`, so their memory stays bounded as the
query set grows.  The closed-loop rollout evaluates the mean in its own
compiled core (:func:`simulation.run_closed_loop`), from a model's inputs
and alpha.  There is no automatic jitter beyond the noise variance: a
failed factorization surfaces as :class:`IllConditionedDataError` so
experiments stay faithful to the exact equations.

Every BLAS call on a factor runs on one OpenBLAS thread, at every size
(:func:`_blas_threads`): from about 128 rows a threaded Cholesky changes its
last bits with the thread count, so artifacts would depend on the host.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import IllConditionedDataError
from .kernels import KernelSpec, _row_blocks, gram, kernel_diag

# (getter, setter) of the thread count, by the name each OpenBLAS build exports
_THREAD_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads64_", "openblas_set_num_threads64_"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def _blas_pools() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS library loaded in the process.

    numpy and scipy each bundle their own OpenBLAS, found through
    ``/proc/self/maps``.  Empty where there is no ``/proc`` or no OpenBLAS
    (MKL, Accelerate).
    """
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return ()
    pools = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _THREAD_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pools.append((get, put))
                break
    return tuple(pools)


@contextlib.contextmanager
def _blas_threads():
    """Run the body with every OpenBLAS pool of :func:`_blas_pools` on one thread.

    Each pool gets its previous count back on exit, on errors too; with no
    pool found, the body runs as it is.  The counts belong to the process,
    so threads of one process that fit at once can leave them pinned.
    """
    pools = _blas_pools()
    previous = [get() for get, _ in pools]
    for _, put in pools:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(pools, previous):
            put(count)


@dataclass(frozen=True)
class TrainingSet:
    """Inputs, targets, and the observation-noise variance."""

    inputs: np.ndarray
    targets: np.ndarray
    noise_variance: float

    def __post_init__(self):
        X = np.atleast_2d(np.asarray(self.inputs, dtype=float))
        y = np.asarray(self.targets, dtype=float).reshape(-1)
        if X.size == 0:
            X = X.reshape(0, X.shape[1] if X.ndim == 2 and X.shape[1] else 1)
        if X.shape[0] != y.shape[0]:
            raise ValueError(f"{X.shape[0]} inputs vs {y.shape[0]} targets")
        if not self.noise_variance > 0:
            raise ValueError("noise_variance must be positive")
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "targets", y)
        object.__setattr__(self, "noise_variance", float(self.noise_variance))

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def dimension(self) -> int:
        return self.inputs.shape[1]

    @staticmethod
    def empty(dimension: int, noise_variance: float) -> "TrainingSet":
        return TrainingSet(np.zeros((0, dimension)), np.zeros(0), noise_variance)

    def concat(self, other: "TrainingSet") -> "TrainingSet":
        if other.dimension != self.dimension:
            raise ValueError("dimension mismatch between training sets")
        if other.noise_variance != self.noise_variance:
            raise ValueError("noise variance mismatch between training sets")
        return TrainingSet(
            np.vstack([self.inputs, other.inputs]),
            np.concatenate([self.targets, other.targets]),
            self.noise_variance,
        )


@dataclass(frozen=True)
class GPModel:
    """Fitted GP posterior: kernel, data, cached factorization and weights."""

    kernel: KernelSpec
    data: TrainingSet
    chol: np.ndarray = field(repr=False)
    alpha: np.ndarray = field(repr=False)

    def __len__(self) -> int:
        return len(self.data)

    def _query(self, x) -> tuple[np.ndarray, bool]:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        X = np.atleast_2d(x)
        if X.shape[1] != self.kernel.dim:
            raise ValueError(
                f"query dimension {X.shape[1]} does not match kernel dimension {self.kernel.dim}"
            )
        return X, single

    def predict_mean(self, x):
        """Posterior mean at x; accepts a point (d,) or a batch (m, d)."""
        X, single = self._query(x)
        mu = np.empty(X.shape[0])
        with _blas_threads():
            for rows in _row_blocks(X.shape[0], len(self) * self.kernel.dim):
                mu[rows] = gram(self.kernel, X[rows], self.data.inputs) @ self.alpha
        return float(mu[0]) if single else mu

    def predict_var(self, x):
        """Posterior variance at x, clamped into [0, k(x,x)]."""
        X, single = self._query(x)
        var = np.empty(X.shape[0])
        for rows, block in self.var_blocks(X):
            var[rows] = block
        return float(var[0]) if single else var

    def var_blocks(self, X: np.ndarray):
        """Yield (rows, variance) over the row blocks of the (m, d) queries X.

        The blocks are :func:`kernels._row_blocks` slices, each clamped into
        [0, k(x,x)], so together they are :meth:`predict_var` bit for bit; a
        caller that needs only part of the variance can stop early.
        """
        prior = kernel_diag(self.kernel, X)
        if len(self) == 0:  # see fit
            yield slice(0, X.shape[0]), prior
            return
        for rows in _row_blocks(X.shape[0], len(self) * self.kernel.dim):
            kx = gram(self.kernel, self.data.inputs, X[rows])
            with _blas_threads():
                v = scipy.linalg.solve_triangular(self.chol, kx, lower=True)
            yield rows, np.clip(prior[rows] - np.einsum("ij,ij->j", v, v), 0.0, prior[rows])

    def with_targets(self, targets) -> "GPModel":
        """The posterior on the same nonempty inputs and noise for other targets.

        Reuses the cached factor, (0, 0) for zero rows, so only alpha is
        solved for; the result is :func:`fit` on the new data bit for bit.
        """
        data = TrainingSet(self.data.inputs, targets, self.data.noise_variance)
        return GPModel(self.kernel, data, self.chol, _weights(self.chol, data.targets))

    def predict_stddev(self, x):
        return np.sqrt(self.predict_var(x))


def fit(kernel: KernelSpec, data: TrainingSet) -> GPModel:
    """Factorize K + s_on^2 I and cache alpha; a zero-row model gets a (0, 0) factor and no weights."""
    if data.dimension != kernel.dim:
        raise ValueError("training-set dimension does not match kernel dimension")
    n = len(data)
    # zero rows stop here and in var_blocks: pyproject allows scipy 1.10, whose LAPACK may refuse 0 x 0
    if n == 0:
        return GPModel(kernel, data, np.zeros((0, 0)), np.zeros(0))
    K = gram(kernel, data.inputs) + data.noise_variance * np.eye(n)
    with _blas_threads():
        try:
            L = scipy.linalg.cholesky(K, lower=True)
        except scipy.linalg.LinAlgError:
            pivot = float(np.linalg.eigvalsh(K)[0])
            raise IllConditionedDataError(
                f"Gram matrix plus noise is not positive definite (smallest pivot {pivot:.3e})",
                smallest_pivot=pivot,
            ) from None
    return GPModel(kernel, data, L, _weights(L, data.targets))


def _weights(chol: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """alpha = (K + s_on^2 I)^{-1} y from the lower Cholesky factor of K + s_on^2 I."""
    with _blas_threads():
        return scipy.linalg.cho_solve((chol, True), targets)


def add_samples(model: GPModel, new: TrainingSet) -> GPModel:
    """Model equivalent to fitting on the concatenated data (full refit)."""
    if len(new) == 0:
        return model
    return fit(model.kernel, model.data.concat(new))


def downsample(raw: TrainingSet, fine_dt: float, target_Ts: float) -> TrainingSet:
    """Keep every floor(target_Ts / fine_dt)-th sample, starting at index 0."""
    if not fine_dt > 0:
        raise ValueError("fine_dt must be positive")
    if target_Ts < fine_dt:
        raise ValueError(f"target sampling time {target_Ts} below recording pitch {fine_dt}")
    # the nudge keeps float representations of exact multiples honest
    # (0.003 / 0.0003 must give stride 10)
    stride = int(np.floor(target_Ts / fine_dt + 1e-9))
    return TrainingSet(raw.inputs[::stride], raw.targets[::stride], raw.noise_variance)
