"""Exact Gaussian-process posterior inference over a mutable training set.

Predictions follow the standard closed forms

    mu(x)      = k(x)^T (K + s_on^2 I)^{-1} y
    sigma^2(x) = k(x,x) - k(x)^T (K + s_on^2 I)^{-1} k(x)

backed by a cached lower-triangular Cholesky factor.  Models are immutable;
the episodic loop refits with :func:`add_samples`, a full :func:`fit` on the
concatenated data, once per ladder rung (the cubic refit cost is acceptable
at its data sizes).  Batch
predictions run over the queries in the row blocks of
:func:`kernels._row_blocks`, so their memory stays bounded as the query set
grows.  There is no automatic jitter beyond the noise variance: a failed
factorization surfaces as :class:`IllConditionedDataError` so experiments
stay faithful to the exact equations.

Every BLAS call on a factor of fewer than ``_SERIAL_BELOW`` rows runs on one
OpenBLAS thread (:func:`_blas_threads`).  At those sizes threads cost CPU
and save no wall time, and from about 128 rows a threaded Cholesky changes
its last bits with the thread count, so artifacts would depend on the host.
"""

from __future__ import annotations

import contextlib
import csv
import ctypes
import functools
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import IllConditionedDataError
from .kernels import SQUARED_EXPONENTIAL, KernelSpec, _row_blocks, gram, kernel_diag

# factors of fewer rows run their BLAS calls on one thread; larger ladder solves gain from threads
_SERIAL_BELOW = 512

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
def _blas_threads(n: int):
    """Run the body on one BLAS thread when the factor has fewer than ``_SERIAL_BELOW`` rows.

    Every OpenBLAS pool of :func:`_blas_pools` is pinned to one thread and
    gets its previous count back on exit, on errors too.  From
    ``_SERIAL_BELOW`` rows, or with no pool found, the body runs as it is.
    The counts belong to the process, so threads of one process that fit
    or predict at the same time can leave each other's counts pinned.
    """
    pools = _blas_pools() if n < _SERIAL_BELOW else ()
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

    def to_csv(self, path) -> None:
        """CSV with header x_1..x_d, y."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow([f"x_{i + 1}" for i in range(self.dimension)] + ["y"])
            for x, y in zip(self.inputs, self.targets):
                w.writerow([repr(float(v)) for v in x] + [repr(float(y))])

    @staticmethod
    def from_csv(path, noise_variance: float) -> "TrainingSet":
        with open(path, newline="") as fh:
            r = csv.reader(fh)
            header = next(r)
            if not header or header[-1] != "y":
                raise ValueError("training-set CSV must have header x_1..x_d, y")
            rows = [[float(v) for v in row] for row in r if row]
        if not rows:
            return TrainingSet.empty(len(header) - 1, noise_variance)
        arr = np.asarray(rows)
        return TrainingSet(arr[:, :-1], arr[:, -1], noise_variance)


@dataclass(frozen=True)
class GPModel:
    """Fitted GP posterior: kernel, data, cached factorization and weights."""

    kernel: KernelSpec
    data: TrainingSet
    chol: np.ndarray | None = field(repr=False)
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
        mu = np.zeros(X.shape[0])
        if len(self) > 0:
            # OpenBLAS threads no one-row product at these sizes, and the RK4 stages
            # of a model without a buffered mean call this once per point
            with _blas_threads(len(self)) if X.shape[0] > 1 else contextlib.nullcontext():
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
        if len(self) == 0:
            yield slice(0, X.shape[0]), prior
            return
        for rows in _row_blocks(X.shape[0], len(self) * self.kernel.dim):
            kx = gram(self.kernel, self.data.inputs, X[rows])
            with _blas_threads(len(self)):
                v = scipy.linalg.solve_triangular(self.chol, kx, lower=True)
            yield rows, np.clip(prior[rows] - np.einsum("ij,ij->j", v, v), 0.0, prior[rows])

    def with_targets(self, targets) -> "GPModel":
        """The posterior on the same nonempty inputs and noise for other targets.

        Reuses the cached factor, so only alpha is solved for; the result is
        :func:`fit` on the new data bit for bit.
        """
        data = TrainingSet(self.data.inputs, targets, self.data.noise_variance)
        return GPModel(self.kernel, data, self.chol, _weights(self.chol, data.targets))

    def predict_stddev(self, x):
        return np.sqrt(self.predict_var(x))

    def mean_at(self, point: np.ndarray):
        """Callable () -> mu(point) for a (d,) buffer that the caller overwrites between calls.

        Bit-identical to :meth:`predict_mean` on the buffer's current value.
        For the squared-exponential kernel of dimension 2 it evaluates the
        buffered kernel row of :func:`_se_rows` at a (2, 1) view of the
        buffer and returns ``0.0 + q.dot(alpha)``, the same dot product as
        ``predict_mean``'s.  Other families and dimensions call
        :meth:`predict_mean` on the buffer, and an empty model returns 0.
        The buffers make the callable non-reentrant.
        """
        if len(self) == 0:
            return lambda: 0.0
        if not _buffered(self.kernel):
            return lambda: self.predict_mean(point)
        rows, q = _se_rows(self.kernel, self.data.inputs, ())
        p, alpha = point[:, None], self.alpha

        def mean():
            rows(p)
            # ndarray.dot takes a (1,) array for a scalar and returns q0 alpha0, -0.0 included;
            # 0.0 + is the accumulator numpy's dot starts from at every other N, and matmul's
            return 0.0 + float(q.dot(alpha))

        return mean


def _buffered(kernel: KernelSpec) -> bool:
    return kernel.family == SQUARED_EXPONENTIAL and kernel.dim == 2


def _se_rows(kernel: KernelSpec, inputs: np.ndarray, stack: tuple):
    """Buffered squared-exponential rows k(p, X) of dimension 2, for the RK4 stages.

    Returns ``(rows, q)``: ``rows(p)`` writes k(p, X) into the (*stack, N)
    buffer q for points p of shape (2, *stack, 1), coordinate first.  The
    data and lengthscales are held at the full (2, *stack, N) size, so the
    ufuncs, called with positional ``out``, skip the broadcast set-up.  The
    operation order is :func:`kernels.gram`'s: (X - p) / ell, squared, row 0
    plus row 1 (its per-coordinate sum at d = 2), times -0.5, exp, times
    sf2; the last multiply is dropped when sf2 is 1.0, since x 1.0 is the
    identity on every double.
    """
    n = inputs.shape[0]
    shape = (2, *stack, n)
    lead = (2,) + (1,) * len(stack)
    XT = np.ascontiguousarray(np.broadcast_to(inputs.T.reshape(*lead, n), shape))
    ell = np.ascontiguousarray(np.broadcast_to(kernel.ell.reshape(*lead, 1), shape))
    sf2 = kernel.signal_variance
    scaled = sf2 != 1.0
    D = np.empty(shape)
    D0, D1 = D
    q = np.empty(shape[1:])

    def rows(p):
        np.subtract(XT, p, D)
        np.divide(D, ell, D)
        np.multiply(D, D, D)
        np.add(D0, D1, q)
        np.multiply(q, -0.5, q)
        np.exp(q, q)
        if scaled:
            np.multiply(q, sf2, q)

    return rows, q


def stacked_mean_function(models):
    """Callable filling mu_s(x_s) for S models at S points, for the batched RK4 stages.

    The callable takes the points as a (2, S, 1) array, coordinate first (a
    transposed view of an (S, 2, 1) stack will do), and an (S, 1, 1) array
    ``out`` that receives the S means.  Entry s is bit-identical to
    :meth:`GPModel.predict_mean` of ``models[s]`` at x_s.  When every model
    has the same squared-exponential kernel of dimension 2 and the same
    nonempty inputs, so that they differ only in alpha, one set of ufunc
    calls serves all S points: the rows of :func:`_se_rows` on a (2, S, N)
    buffer, then the stacked product (S, 1, N) @ (S, N, 1), which makes the
    same dot product per model.  Otherwise each model's
    :meth:`GPModel.predict_mean` runs on its point.  The buffers make the
    callable non-reentrant.
    """
    first = models[0]
    if not (len(first) > 0 and _buffered(first.kernel)
            and all(m.kernel == first.kernel and np.array_equal(m.data.inputs, first.data.inputs)
                    for m in models)):
        def each(points, out):
            for s, model in enumerate(models):
                out[s] = model.predict_mean(points[:, s, 0])

        return each
    rows, q = _se_rows(first.kernel, first.data.inputs, (len(models),))
    alpha = np.stack([m.alpha for m in models])[:, :, None]  # (S, N, 1)
    q_rows = q[:, None, :]

    def mean(points, out):
        rows(points)
        np.matmul(q_rows, alpha, out=out)

    return mean


def fit(kernel: KernelSpec, data: TrainingSet) -> GPModel:
    """Factorize K + s_on^2 I and cache the weight vector alpha."""
    if data.dimension != kernel.dim and len(data) > 0:
        raise ValueError("training-set dimension does not match kernel dimension")
    n = len(data)
    if n == 0:
        return GPModel(kernel, data, None, np.zeros(0))
    K = gram(kernel, data.inputs) + data.noise_variance * np.eye(n)
    with _blas_threads(n):
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
    with _blas_threads(chol.shape[0]):
        return scipy.linalg.cho_solve((chol, True), targets)


def add_samples(model: GPModel, new: TrainingSet) -> GPModel:
    """Model equivalent to fitting on the concatenated data (full refit)."""
    if len(new) == 0:
        return model
    if len(model.data) == 0:
        combined = new
    else:
        combined = model.data.concat(new)
    return fit(model.kernel, combined)


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
