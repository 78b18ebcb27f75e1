"""IID, quantile-stratified (QS) and layered quantile-stratified (LQS) sampling.

All three methods draw a uniform variable per sample point and push it through
the quantile function of the target distribution.  They differ in how the
uniforms are placed over the m equiprobable quantile blocks:

* IID      -- every uniform is free; block occupancies are multinomial.
* QS       -- block indices are a random permutation of 1..m (sampling
              without replacement), so each block holds exactly one value.
* LQS      -- K independent QS subsamples with layer sizes (m_1, ..., m_K)
              are concatenated and shuffled; block coverage holds per layer.

Randomness is fully seed-keyed: the same seed always reproduces the same
batch bit for bit.  Replicated studies derive one child seed per replicate
from (master seed, replicate index) so results do not depend on execution
order.
"""

from __future__ import annotations

import operator
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution
from .errors import DomainError

__all__ = [
    "METHODS",
    "LayerSpec",
    "SampleBatch",
    "spawn_seed",
    "srswor_perm",
    "sample",
    "sample_size",
    "sample_iid",
    "sample_qs",
    "sample_lqs",
    "iid_uniform_batches",
    "qs_uniform_batches",
    "lqs_uniform_batches",
    "uniforms",
]

METHODS = ("iid", "qs", "lqs")


# ---------------------------------------------------------------------------
# Seed plumbing
# ---------------------------------------------------------------------------

def _fresh_seed() -> int:
    """Draw a 64-bit seed from OS entropy (used when no seed is given)."""
    return int(np.random.SeedSequence().generate_state(1, np.uint64)[0])


def spawn_seed(seed: int, index: int) -> int:
    """Derive an independent 64-bit child seed from (master seed, index).

    Uses numpy's splittable SeedSequence, so child streams are statistically
    independent and the derivation does not depend on how many other children
    exist or in which order they are created.
    """
    ss = np.random.SeedSequence(int(seed), spawn_key=(int(index),))
    return int(ss.generate_state(1, np.uint64)[0])


def _open_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniforms in the open interval (0, 1).

    ``rng.random`` covers [0, 1); an exact 0.0 (probability 2^-53) is bumped
    to 2^-53 so the quantile function is never evaluated at 0.
    """
    u = rng.random(shape)
    np.copyto(u, 2.0 ** -53, where=(u == 0.0))
    return u


# ---------------------------------------------------------------------------
# Sample sizes and layer specification
# ---------------------------------------------------------------------------

def _positive_int(value, what: str) -> int:
    """``value`` as an int, if it is an integer (numpy integers too) >= 1."""
    try:
        n = operator.index(value)
    except TypeError:
        raise DomainError(f"{what} must be an integer, got {value!r}") from None
    if n < 1:
        raise DomainError(f"{what} must be >= 1, got {n}")
    return n


@dataclass(frozen=True)
class LayerSpec:
    """Layer sizes (m_1, ..., m_K) of an LQS sample; all sizes must be
    integers >= 1."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(_positive_int(s, "layer size") for s in self.sizes)
        if len(sizes) == 0:
            raise DomainError("LayerSpec needs at least one layer")
        object.__setattr__(self, "sizes", sizes)

    @property
    def total(self) -> int:
        return sum(self.sizes)

    @property
    def n_layers(self) -> int:
        return len(self.sizes)


def _as_layers(layers) -> LayerSpec:
    """A LayerSpec from a spec, a sequence of sizes or one size."""
    if isinstance(layers, LayerSpec):
        return layers
    if not isinstance(layers, Iterable):
        layers = (layers,)
    return LayerSpec(tuple(layers))


def sample_size(method: str, m=None, layers=None):
    """Checked (method, size) of one sample, the size as :func:`uniforms`
    takes it.

    ``method`` is one of :data:`METHODS`, in any case.  m must be an integer
    >= 1; for LQS it may be left out and is then the layers' total.  LQS
    requires layer sizes, which must sum to m, and its size is their
    :class:`LayerSpec`; IID and QS reject layers, and their size is m.
    Every failure raises :class:`DomainError`.
    """
    key = str(method).strip().lower()
    if key not in METHODS:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    if key != "lqs":
        if layers is not None:
            raise DomainError(f"layer sizes are only valid with method 'lqs', not {key!r}")
        return key, _positive_int(m, "sample size m")
    if layers is None:
        raise DomainError("lqs sampling requires layer sizes")
    spec = _as_layers(layers)
    if m is not None and _positive_int(m, "sample size m") != spec.total:
        raise DomainError(
            f"layer sizes {spec.sizes} sum to {spec.total}; they must sum to m={m}"
        )
    return key, spec


# ---------------------------------------------------------------------------
# Sample batches
# ---------------------------------------------------------------------------

@dataclass
class SampleBatch:
    """One generated sample with its underlying uniforms and block indices.

    ``values[i]`` always equals ``dist.quantile(uniforms[i])``.  ``blocks``
    holds the quantile-block index of each uniform (within its own layer for
    LQS, in which case ``layer_index`` records the layer of each point).
    """

    method: str
    uniforms: np.ndarray
    values: np.ndarray
    blocks: np.ndarray
    seed: int
    layers: LayerSpec | None = None
    layer_index: np.ndarray | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.uniforms.size


def srswor_perm(m: int, rng: np.random.Generator) -> np.ndarray:
    """Simple random sample of all of {1, ..., m} without replacement,
    i.e. a uniformly random permutation."""
    if m < 1:
        raise DomainError(f"permutation size must be >= 1, got {m}")
    return rng.permutation(np.arange(1, m + 1))


# ---------------------------------------------------------------------------
# Vectorized uniform generators (one row per replicate)
# ---------------------------------------------------------------------------

def iid_uniform_batches(m: int, reps: int, rng: np.random.Generator):
    """IID uniforms of shape (reps, m) and their block indices ceil(m*U)."""
    if m < 1:
        raise DomainError(f"sample size must be >= 1, got {m}")
    u = _open_uniform(rng, (reps, m))
    blocks = np.ceil(m * u).astype(np.int64)
    return u, blocks


def qs_uniform_batches(m: int, reps: int, rng: np.random.Generator):
    """QS uniforms of shape (reps, m): one value per quantile block per row.

    Row construction: a random permutation sigma of 1..m, then
    U_i = (sigma_i - r_i) / m with r_i in [0, 1), which lands U_i in the
    half-open block ((sigma_i - 1)/m, sigma_i/m].
    """
    if m < 1:
        raise DomainError(f"sample size must be >= 1, got {m}")
    perms = rng.permuted(np.tile(np.arange(1, m + 1), (reps, 1)), axis=1)
    r = rng.random((reps, m))
    u = (perms - r) / m
    # r == 0 puts U exactly at the upper block edge; keep U strictly below 1.
    np.copyto(u, np.nextafter(1.0, 0.0), where=(u >= 1.0))
    return u, perms.astype(np.int64)


def lqs_uniform_batches(layers, reps: int, rng: np.random.Generator):
    """LQS uniforms of shape (reps, m): per-layer QS subsamples, shuffled.

    Returns (uniforms, blocks, layer_index) where ``blocks`` are block
    indices within each point's own layer and ``layer_index`` is the 1-based
    layer each point came from.  The final within-row shuffle is a uniform
    permutation of all m positions.
    """
    spec = _as_layers(layers)
    m = spec.total
    u_parts, b_parts, l_parts = [], [], []
    for k, mk in enumerate(spec.sizes, start=1):
        u_k, b_k = qs_uniform_batches(mk, reps, rng)
        u_parts.append(u_k)
        b_parts.append(b_k)
        l_parts.append(np.full((reps, mk), k, dtype=np.int64))
    u = np.concatenate(u_parts, axis=1)
    blocks = np.concatenate(b_parts, axis=1)
    layer_idx = np.concatenate(l_parts, axis=1)
    shuffle = rng.permuted(np.tile(np.arange(m), (reps, 1)), axis=1)
    u = np.take_along_axis(u, shuffle, axis=1)
    blocks = np.take_along_axis(blocks, shuffle, axis=1)
    layer_idx = np.take_along_axis(layer_idx, shuffle, axis=1)
    return u, blocks, layer_idx


def uniforms(method: str, size, reps: int, rng: np.random.Generator):
    """Uniforms of shape (reps, m) drawn by ``method``, with their block indices.

    ``size`` is the sample size m for "iid" and "qs", and the layer sizes
    for "lqs".  Returns (uniforms, blocks, layer_index), where layer_index
    is None except for LQS.  This is the one dispatch from a method name to
    its batch generator; a single sample is the ``reps=1`` row.
    """
    if method == "lqs":
        return lqs_uniform_batches(size, reps, rng)
    if method == "qs":
        u, blocks = qs_uniform_batches(size, reps, rng)
    elif method == "iid":
        u, blocks = iid_uniform_batches(size, reps, rng)
    else:
        raise DomainError(f"method must be one of {METHODS}, got {method!r}")
    return u, blocks, None


# ---------------------------------------------------------------------------
# Batch samplers
# ---------------------------------------------------------------------------

def sample(
    dist: Distribution, method: str, m=None, seed: int | None = None, layers=None
) -> SampleBatch:
    """Draw one sample of size m from ``dist`` by ``method`` ("iid", "qs" or
    "lqs"; LQS takes ``layers`` and may leave m out).

    (method, m, layers) are checked by :func:`sample_size`.  The batch is the
    ``reps=1`` row of the method's uniform generator pushed through
    ``dist.quantile``.
    """
    method, size = sample_size(method, m, layers)
    seed = _fresh_seed() if seed is None else int(seed)
    u, blocks, layer_idx = uniforms(method, size, 1, np.random.default_rng(seed))
    return SampleBatch(
        method, u[0], dist.quantile(u[0]), blocks[0], seed,
        layers=size if method == "lqs" else None,
        layer_index=None if layer_idx is None else layer_idx[0],
    )


def sample_iid(dist: Distribution, m: int, seed: int | None = None) -> SampleBatch:
    """Draw m independent values from ``dist`` by inverse transform.

    Uniforms are drawn directly on (0, 1); block indices ceil(m*U) are
    recorded so block occupancies can be compared with stratified samples.
    """
    return sample(dist, "iid", m, seed)


def sample_qs(dist: Distribution, m: int, seed: int | None = None) -> SampleBatch:
    """Draw a quantile-stratified sample of size m from ``dist``.

    Exactly one value falls in each of the m equiprobable quantile blocks;
    each value still has marginal law ``dist``.
    """
    return sample(dist, "qs", m, seed)


def sample_lqs(dist: Distribution, layers, seed: int | None = None) -> SampleBatch:
    """Draw a layered quantile-stratified sample from ``dist``.

    Generates an independent QS subsample per layer, concatenates them and
    applies a uniform random permutation of all positions.  A single layer
    reduces to QS sampling; all-unit layers reduce to IID sampling.
    """
    return sample(dist, "lqs", seed=seed, layers=layers)
