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

from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .distributions import Distribution
from .errors import DomainError, check_int, check_name

__all__ = [
    "METHODS",
    "LayerSpec",
    "SampleBatch",
    "spawn_seed",
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
    """Derive an independent 64-bit child seed from (master seed, index),
    both integers >= 0.

    Uses numpy's splittable SeedSequence, so child streams are statistically
    independent and the derivation does not depend on how many other children
    exist or in which order they are created.
    """
    ss = np.random.SeedSequence(check_int(seed, "seed", low=0),
                                spawn_key=(check_int(index, "stream index", low=0),))
    return int(ss.generate_state(1, np.uint64)[0])


# SeedSequence's hashing (numpy/random/bit_generator.pyx), run over lanes:
# every word below is a uint32 array with one entry per lane, and uint32
# array arithmetic wraps mod 2^32 as the C code does.  The running hash
# constant steps the same way in every lane, so each of its values is one
# uint32 scalar.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MAX_STREAMS = 2 ** 32


def _hash_constants(init: int, mult: int):
    """SeedSequence's running hash constant as (before, after) pairs, one pair
    per hashed word: init, init*mult, init*mult^2, ... mod 2^32."""
    while True:
        after = init * mult & 0xFFFFFFFF
        yield np.uint32(init), np.uint32(after)
        init = after


def _hashmix(word: np.ndarray, constants) -> np.ndarray:
    before, after = next(constants)
    word = (word ^ before) * after
    return word ^ (word >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ (result >> 16)


def _mix_entropy(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence.mix_entropy of the entropy words, lane by lane: the pool."""
    constants = _hash_constants(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [_hashmix(entropy[i] if i < len(entropy) else zero, constants)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], constants))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, constants))
    return pool


def _generate_state(pool: list[np.ndarray], n_words: int) -> np.ndarray:
    """SeedSequence.generate_state(n_words, np.uint64) of each lane's pool, as
    a C-ordered (lanes, n_words) uint64 array."""
    constants = _hash_constants(_INIT_B, _MULT_B)
    words = [_hashmix(pool[i % _POOL_SIZE], constants).astype(np.uint64)
             for i in range(2 * n_words)]
    return np.stack([lo | hi << np.uint64(32) for lo, hi in zip(words[::2], words[1::2])],
                    axis=1)


def _child_seeds(seed: int, start: int, stop: int) -> np.ndarray:
    """``[spawn_seed(seed, r) for r in range(start, stop)]`` as a uint64 array,
    hashed in one pass over the indices, which must lie in [0, 2^32).

    The entropy is the seed's 32-bit words, zero-padded to the pool size as
    SeedSequence pads them when a spawn key is present, then the index.
    """
    if not 0 <= start <= stop <= _MAX_STREAMS:
        raise DomainError(f"stream indices must lie in [0, 2^32), got [{start}, {stop})")
    index = np.arange(start, stop, dtype=np.uint32)
    words = [seed >> shift & 0xFFFFFFFF for shift in range(0, max(seed.bit_length(), 1), 32)]
    words += [0] * (_POOL_SIZE - len(words))
    entropy = [np.full_like(index, w) for w in words] + [index]
    return _generate_state(_mix_entropy(entropy), 1)[:, 0]


def _pcg64_keys(children: np.ndarray) -> np.ndarray:
    """``SeedSequence(c).generate_state(4, np.uint64)`` for each uint64 child
    seed c, as a (lanes, 4) array: the words ``default_rng(c)`` seeds PCG64
    with.  A child below 2^32 is one word long; its missing high word hashes
    as a zero word would, since pool slots past the entropy hash a zero."""
    lo = (children & np.uint64(0xFFFFFFFF)).astype(np.uint32)
    hi = (children >> np.uint64(32)).astype(np.uint32)
    return _generate_state(_mix_entropy([lo, hi]), 4)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence whose state is already generated: hands PCG64 its
    four words without hashing again.  PCG64 reads the array's buffer, so
    ``words`` must be a C-contiguous uint64 row, as :func:`_pcg64_keys`
    rows are."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint64):
        return self.words


def _child_generators(seed: int, start: int, stop: int) -> list[np.random.Generator]:
    """``[np.random.default_rng(spawn_seed(seed, r)) for r in range(start, stop)]``,
    bit for bit, from one hash pass over the indices (which must lie in
    [0, 2^32)) in place of two SeedSequence hashes per index."""
    keys = _pcg64_keys(_child_seeds(seed, start, stop))
    return [np.random.Generator(np.random.PCG64(_SeedWords(row))) for row in keys]


def _checked_rng(rng, reps: int):
    """``rng`` as the generators take it: one ``np.random.Generator``, or a
    sequence of ``reps`` Generators, one per row, as a list.  Anything else
    raises :class:`DomainError`."""
    if isinstance(rng, np.random.Generator):
        return rng
    rngs = list(rng) if isinstance(rng, Iterable) else [rng]
    if not all(isinstance(g, np.random.Generator) for g in rngs):
        raise DomainError("rng must be a numpy Generator or a sequence of Generators")
    if len(rngs) != reps:
        raise DomainError(f"got {len(rngs)} Generators for {reps} replicates")
    return rngs


def _by_row(rng, draw, out: np.ndarray) -> np.ndarray:
    """Run ``draw(generator, rows)`` on the 2-D array ``out`` and return out.

    One Generator makes the one call ``draw(rng, out)``.  A sequence draws
    row i alone, as ``draw(rng[i], out[i:i + 1])``, so row i holds what
    rng[i] would write into a 1-row array.  Only the random draws go through
    here; all arithmetic runs once on the stacked rows.
    """
    if isinstance(rng, np.random.Generator):
        return draw(rng, out)
    for i, g in enumerate(rng):
        draw(g, out[i:i + 1])
    return out


def _random(rng, out: np.ndarray) -> np.ndarray:
    """Fill the 2-D float64 array ``out`` with uniforms on [0, 1), drawn
    through :func:`_by_row`, as ``rng.random(out=out)`` fills it."""
    return _by_row(rng, lambda g, r: g.random(out=r), out)


# ---------------------------------------------------------------------------
# Sample sizes and layer specification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerSpec:
    """Layer sizes (m_1, ..., m_K) of an LQS sample; all sizes must be
    integers >= 1."""

    sizes: tuple[int, ...]

    def __post_init__(self):
        sizes = tuple(check_int(s, "layer size") for s in self.sizes)
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
    key = check_name(method, METHODS, "method")
    if key != "lqs":
        if layers is not None:
            raise DomainError(f"layer sizes are only valid with method 'lqs', not {key!r}")
        return key, check_int(m, "sample size m")
    if layers is None:
        raise DomainError("lqs sampling requires layer sizes")
    spec = _as_layers(layers)
    if m is not None and check_int(m, "sample size m") != spec.total:
        raise DomainError(
            f"layer sizes {spec.sizes} sum to {spec.total}; they must sum to m={m}"
        )
    return key, spec


# ---------------------------------------------------------------------------
# Sample batches
# ---------------------------------------------------------------------------

@dataclass
class SampleBatch:
    """One generated sample with its underlying uniforms.

    ``values[i]`` always equals ``dist.quantile(uniforms[i])``; for LQS,
    ``layer_index`` records the 1-based layer of each point.
    """

    method: str
    uniforms: np.ndarray
    values: np.ndarray
    seed: int
    layers: LayerSpec | None = None
    layer_index: np.ndarray | None = field(default=None, repr=False)

    @property
    def m(self) -> int:
        return self.uniforms.size

    @property
    def blocks(self) -> np.ndarray:
        """The block ceil(m_k * U) of each uniform, m_k the size of its layer
        (m without layers).  Exact in U-space, while a Beta or Gamma value may
        sit one ulp outside its block [Q((s-1)/m), Q(s/m)] (see ``Beta``)."""
        m = self.m if self.layers is None else np.array(self.layers.sizes)[self.layer_index - 1]
        return np.ceil(m * self.uniforms).astype(np.int64)


# ---------------------------------------------------------------------------
# Vectorized uniform generators (one row per replicate)
# ---------------------------------------------------------------------------

# The QS and LQS arrays are filled in place and must stay C-ordered: a gather
# with a broadcast 2-D index, or ``permuted`` of a broadcast view, comes back
# Fortran-ordered, and row reductions over it add in another order.

# Cells in one row block of the QS and LQS arithmetic: a block of an array m
# wide is max(1, _BLOCK_CELLS // m) rows.  Only one block of rows has
# temporaries at a time, so a generator peaks at about the size of its output.
_BLOCK_CELLS = 2 ** 16


def _shuffle_rows(a: np.ndarray, rng) -> np.ndarray:
    """Shuffle each row of the 2-D array ``a`` in place by a uniform
    permutation, the rows in turn (by :func:`_by_row`), and return it.
    ``permuted`` makes the same swaps whatever the dtype or stride of ``a``."""
    return _by_row(rng, lambda g, p: g.permuted(p, axis=1, out=p), a)


def _qs_place(perms: np.ndarray, r: np.ndarray, m: int, out: np.ndarray) -> None:
    """Write U = (perms - r) / m into ``out`` (which may be r) after clipping
    r in place into [m 2^-52, 1 - m 2^-52]: each U then lies strictly inside
    (0, 1) and ceil(m * U) is exactly its block, perms."""
    np.clip(r, m * 2.0 ** -52, 1.0 - m * 2.0 ** -52, out=r)
    np.subtract(perms, r, out=out)
    out /= m


def _qs_fill(u: np.ndarray, rng) -> np.ndarray:
    """Fill the (reps, m) float64 array ``u`` (C-ordered, or a column slice
    of a C-ordered array) with QS uniforms written over their own
    permutations, and return it.

    The int64 permutations are drawn into ``u`` seen as int64 first; then
    each row block draws its offsets r into a small buffer, places U there
    and stores it over the block's permutation rows.  (Writing U straight
    over the int64 rows would make numpy copy them first, since input and
    output share memory.)
    """
    reps, m = u.shape
    perms = u.view(np.int64)
    perms[...] = np.arange(1, m + 1)
    _shuffle_rows(perms, rng)
    step = min(reps, max(1, _BLOCK_CELLS // m))
    r_buffer = np.empty((step, m))
    for start in range(0, reps, step):
        rows = slice(start, start + step)
        block = perms[rows]
        # One Generator draws the blocks in row order, which gives the bits of
        # one call over all rows; a sequence is sliced to the block's rows.
        g = rng if isinstance(rng, np.random.Generator) else rng[rows]
        r = _random(g, r_buffer[:len(block)])
        _qs_place(block, r, m, out=r)
        u[rows] = r
    return u


def iid_uniform_batches(m: int, reps: int, rng):
    """IID uniforms of shape (reps, m), as (uniforms, None).  ``rng`` is as
    :func:`uniforms` takes it.

    ``rng.random`` covers [0, 1) in multiples of 2^-53, so raising every
    value to at least 2^-53 bumps exactly the zeros (probability 2^-53 each)
    and the quantile function is never evaluated at 0.
    """
    m, reps = check_int(m, "sample size m"), check_int(reps, "replicates")
    u = _random(_checked_rng(rng, reps), np.empty((reps, m)))
    return np.maximum(u, 2.0 ** -53, out=u), None


def qs_uniform_batches(m: int, reps: int, rng):
    """QS uniforms of shape (reps, m), as (uniforms, None): one per block per row.

    Row construction: a random permutation sigma of 1..m, then
    U_i = (sigma_i - r_i) / m with r_i in [0, 1), which lands U_i in the
    half-open block ((sigma_i - 1)/m, sigma_i/m].  ``rng`` is as
    :func:`uniforms` takes it.
    """
    m, reps = check_int(m, "sample size m"), check_int(reps, "replicates")
    return _qs_fill(np.empty((reps, m)), _checked_rng(rng, reps)), None


def lqs_uniform_batches(layers, reps: int, rng, *, _layer_index: bool = True):
    """LQS uniforms of shape (reps, m): per-layer QS subsamples, shuffled.

    Returns (uniforms, layer_index), where ``layer_index`` is the 1-based
    layer each point came from.  The final within-row shuffle is a uniform
    permutation of all m positions.  ``rng`` is as :func:`uniforms` takes it.
    :func:`uniforms` reads no layer index and passes the private
    ``_layer_index=False``, which gives (uniforms, None) with the same bits.
    """
    spec, reps = _as_layers(layers), check_int(reps, "replicates")
    rng = _checked_rng(rng, reps)
    # Each layer's QS draw is written into its own columns, before the shuffle.
    u = np.empty((reps, spec.total))
    start = 0
    for mk in spec.sizes:
        _qs_fill(u[:, start:start + mk], rng)
        start += mk
    if not _layer_index:
        return _shuffle_rows(u, rng), None
    # The layer index: each Generator shuffles its rows of the labels, is
    # rewound to its saved state and shuffles its rows of U by the same swaps.
    layer_index = np.empty_like(u, dtype=np.int64)
    layer_index[...] = np.repeat(np.arange(1, spec.n_layers + 1), spec.sizes)
    single = isinstance(rng, np.random.Generator)
    for i, g in enumerate([rng] if single else rng):
        rows = slice(None) if single else slice(i, i + 1)
        state = g.bit_generator.state
        _shuffle_rows(layer_index[rows], g)
        g.bit_generator.state = state
        _shuffle_rows(u[rows], g)
    return u, layer_index


def uniforms(method: str, size, reps: int, rng) -> np.ndarray:
    """Uniforms of shape (reps, m) drawn by ``method`` (any case, stripped).

    ``size`` is the sample size m for "iid" and "qs", and the layer sizes
    for "lqs"; ``reps`` is an integer >= 1.  ``rng`` is one
    ``np.random.Generator``, which draws every row, or a sequence of ``reps``
    Generators: row i is then drawn from rng[i] alone and is bit for bit
    ``uniforms(method, size, 1, rng[i])``, while the arithmetic still runs
    once on all rows.  A sequence of another length, or holding anything but
    Generators, raises :class:`DomainError`.  Returns the C-ordered float64
    array, bit for bit the first item of the method's generator, and builds
    no LQS layer index (:func:`lqs_uniform_batches` returns it).  This is
    the one dispatch from a method name to its batch generator, looked up at
    call time; a single sample is the ``reps=1`` row.
    """
    generators = {"iid": iid_uniform_batches, "qs": qs_uniform_batches,
                  "lqs": lambda *args: lqs_uniform_batches(*args, _layer_index=False)}
    return generators[check_name(method, METHODS, "method")](size, reps, rng)[0]


# ---------------------------------------------------------------------------
# Batch samplers
# ---------------------------------------------------------------------------

def sample(
    dist: Distribution, method: str, m=None, seed: int | None = None, layers=None
) -> SampleBatch:
    """Draw one sample of size m from ``dist`` by ``method`` ("iid", "qs" or
    "lqs"; LQS takes ``layers`` and may leave m out).

    (method, m, layers) are checked by :func:`sample_size`; a given seed must
    be an integer >= 0, and None draws a fresh one.  The batch is the
    ``reps=1`` row of the method's uniform generator pushed through
    ``dist.quantile``; an LQS batch also records its layer index.
    """
    method, size = sample_size(method, m, layers)
    seed = _fresh_seed() if seed is None else check_int(seed, "seed", low=0)
    rng = np.random.default_rng(seed)
    if method != "lqs":
        u = uniforms(method, size, 1, rng)[0]
        return SampleBatch(method, u, dist.quantile(u), seed)
    u, index = lqs_uniform_batches(size, 1, rng)
    return SampleBatch(method, u[0], dist.quantile(u[0]), seed, layers=size, layer_index=index[0])


def sample_iid(dist: Distribution, m: int, seed: int | None = None) -> SampleBatch:
    """Draw m independent values from ``dist`` by inverse transform.

    Uniforms are drawn directly on (0, 1); a block may hold several values.
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
