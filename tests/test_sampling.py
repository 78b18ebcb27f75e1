"""Sampling methods: permutations, block coverage, marginal laws, moments,
reductions and seed-keyed determinism."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from qstrat.distributions import Beta, Discrete, Gamma, Normal, Uniform01
from qstrat.errors import DomainError
from qstrat.sampling import (
    _BLOCK_CELLS,
    LayerSpec,
    _child_generators,
    _child_seeds,
    _pcg64_keys,
    _qs_place,
    iid_uniform_batches,
    lqs_uniform_batches,
    qs_uniform_batches,
    sample,
    sample_iid,
    sample_lqs,
    sample_qs,
    spawn_seed,
    uniforms,
)

KS_ALPHA = 0.01
DISCRETE = Discrete([0.0, 1.0, 2.5], [0.2, 0.5, 0.3])

SHAPES = st.floats(0.05, 50.0)
LAWS = st.one_of(st.builds(Beta, SHAPES, SHAPES), st.builds(Gamma, SHAPES, st.floats(1.0, 50.0)))
SEEDS = st.integers(0, 2 ** 63 - 1)
LAYERS = st.one_of(
    st.integers(1, 5000).map(lambda m: (m,)),               # one layer: plain QS
    st.integers(1, 300).map(lambda k: (1,) * k),            # all-unit layers: IID
    st.lists(st.integers(1, 500), min_size=1, max_size=12).map(tuple),
)


def pair_correlation(u: np.ndarray) -> tuple[float, float]:
    """Empirical pairwise correlation of exchangeable uniforms and its SE.

    Uses the known mean 1/2 and variance 1/12, so the per-replicate pair
    statistic is unbiased for the covariance and replicates are IID.
    """
    m = u.shape[1]
    c = u - 0.5
    s = c.sum(axis=1)
    t = (s ** 2 - (c ** 2).sum(axis=1)) / (m * (m - 1))
    corr = 12.0 * t.mean()
    se = 12.0 * t.std(ddof=1) / np.sqrt(t.size)
    return corr, se


def qs_blocks(m, reps, rng):
    """The blocks ceil(m * U) of a (reps, m) QS batch."""
    return np.ceil(m * qs_uniform_batches(m, reps, rng)[0]).astype(np.int64)


class TestQsBlockPermutations:
    """Each QS row's block indices are a uniformly random permutation."""

    def test_single_element(self):
        rng = np.random.default_rng(0)
        assert qs_blocks(1, 1, rng).tolist() == [[1]]

    def test_is_permutation(self):
        rng = np.random.default_rng(1)
        for m in (2, 3, 5, 17):
            blocks = qs_blocks(m, 4, rng)
            assert np.array_equal(np.sort(blocks, axis=1), np.tile(np.arange(1, m + 1), (4, 1)))

    def test_all_six_permutations_uniform(self):
        # 60000 draws of a 3-permutation: each of the 6 outcomes near 1/6.
        rng = np.random.default_rng(2)
        draws = 60_000
        counts = {p: 0 for p in itertools.permutations((1, 2, 3))}
        for row in qs_blocks(3, draws, rng).tolist():
            counts[tuple(row)] += 1
        freqs = np.array(list(counts.values())) / draws
        assert np.all(np.abs(freqs - 1 / 6) <= 0.01)
        chi2, p_value = stats.chisquare(list(counts.values()))
        assert p_value > KS_ALPHA

    def test_size_validation(self):
        with pytest.raises(DomainError):
            qs_uniform_batches(0, 1, np.random.default_rng(0))


class TestIidSampling:
    def test_single_value_in_support(self):
        batch = sample_iid(Uniform01(), 1, seed=11)
        assert batch.m == 1 and 0 < batch.values[0] < 1

    def test_uniform_mean_within_four_sigma(self):
        m = 100_000
        batch = sample_iid(Uniform01(), m, seed=12)
        bound = 4.0 / np.sqrt(12.0 * m)
        assert abs(batch.values.mean() - 0.5) <= bound

    def test_normal_sample_passes_ks(self):
        batch = sample_iid(Normal(0, 1), 10_000, seed=13)
        _, p_value = stats.kstest(batch.values, stats.norm.cdf)
        assert p_value > KS_ALPHA

    def test_block_counts_multinomial(self):
        # Pooled block occupancies over replicates: uniform chi-square.
        m, reps = 10, 10_000
        rng = np.random.default_rng(14)
        u, _ = iid_uniform_batches(m, reps, rng)
        blocks = np.ceil(m * u).astype(np.int64)
        counts = np.bincount(blocks.ravel(), minlength=m + 1)[1:]
        _, p_value = stats.chisquare(counts)
        assert p_value > KS_ALPHA
        # Unlike QS, per-replicate coverage is incomplete most of the time.
        full_cover = np.mean([len(np.unique(row)) == m for row in blocks[:1000]])
        assert full_cover < 0.01

    def test_values_are_quantiles_of_uniforms(self):
        batch = sample_iid(Gamma(2, 5), 50, seed=15)
        np.testing.assert_array_equal(batch.values, Gamma(2, 5).quantile(batch.uniforms))


class TestQsSampling:
    @pytest.mark.parametrize("m", [1, 2, 5, 30, 64])
    def test_exactly_one_uniform_per_block(self, m):
        batch = sample_qs(Normal(0, 1), m, seed=21)
        edges = np.ceil(m * batch.uniforms).astype(int)
        assert np.array_equal(np.sort(edges), np.arange(1, m + 1))
        assert np.array_equal(np.sort(batch.blocks), np.arange(1, m + 1))

    def test_sorted_uniforms_land_in_consecutive_blocks(self):
        m = 30
        batch = sample_qs(Normal(0, 1), m, seed=22)
        u = np.sort(batch.uniforms)
        k = np.arange(1, m + 1)
        assert np.all(u > (k - 1) / m) and np.all(u <= k / m)

    def test_pair_correlation_m2(self):
        rng = np.random.default_rng(23)
        u, _ = qs_uniform_batches(2, 1_000_000, rng)
        corr, _ = pair_correlation(u)
        assert corr == pytest.approx(-0.75, abs=0.01)

    def test_uniform_moments_within_four_sigma(self):
        rng = np.random.default_rng(24)
        u, _ = qs_uniform_batches(10, 100_000, rng)
        means = u.mean(axis=1)
        z_mean = (means.mean() - 0.5) / (means.std(ddof=1) / np.sqrt(means.size))
        sq = ((u - 0.5) ** 2).mean(axis=1)
        z_var = (sq.mean() - 1 / 12) / (sq.std(ddof=1) / np.sqrt(sq.size))
        assert abs(z_mean) <= 4 and abs(z_var) <= 4

    def test_values_are_quantiles_of_uniforms(self):
        batch = sample_qs(Beta(3, 2), 40, seed=25)
        np.testing.assert_array_equal(batch.values, Beta(3, 2).quantile(batch.uniforms))

    def test_m_one_has_same_law_as_iid(self):
        # With a single block, stratification is vacuous: the one uniform is
        # plain U(0, 1), exactly as in the IID sampler.
        qs_draws = np.array(
            [sample_qs(Uniform01(), 1, seed=spawn_seed(26, r)).uniforms[0]
             for r in range(3000)]
        )
        iid_draws = np.array(
            [sample_iid(Uniform01(), 1, seed=spawn_seed(27, r)).uniforms[0]
             for r in range(3000)]
        )
        assert stats.kstest(qs_draws, stats.uniform.cdf).pvalue > KS_ALPHA
        assert stats.ks_2samp(qs_draws, iid_draws).pvalue > KS_ALPHA


class TestLqsSampling:
    def test_single_layer_covers_all_blocks_like_qs(self):
        batch = sample_lqs(Uniform01(), (12,), seed=31)
        assert np.array_equal(np.sort(batch.blocks), np.arange(1, 13))

    def test_unit_layers_have_full_range_blocks_like_iid(self):
        batch = sample_lqs(Uniform01(), (1,) * 8, seed=32)
        assert np.all(batch.blocks == 1)  # every layer has a single block
        assert np.all((batch.uniforms > 0) & (batch.uniforms < 1))

    def test_unit_layer_uniforms_are_uncorrelated(self):
        rng = np.random.default_rng(33)
        u, _ = lqs_uniform_batches((1,) * 6, 200_000, rng)
        corr, se = pair_correlation(u)
        assert abs(corr) <= 4 * se

    def test_layered_pair_correlation(self):
        rng = np.random.default_rng(34)
        u, _ = lqs_uniform_batches((18, 9, 3), 100_000, rng)
        corr, _ = pair_correlation(u)
        assert corr == pytest.approx(-0.0339, abs=0.003)

    def test_per_layer_block_coverage(self):
        batch = sample_lqs(Normal(0, 1), (7, 4, 2), seed=35)
        for k, mk in enumerate(batch.layers.sizes, start=1):
            blocks_k = np.sort(batch.blocks[batch.layer_index == k])
            assert np.array_equal(blocks_k, np.arange(1, mk + 1))

    def test_layer_spec_validation(self):
        with pytest.raises(DomainError):
            LayerSpec(())
        with pytest.raises(DomainError):
            LayerSpec((3, 0))
        assert LayerSpec((18, 9, 3)).total == 30


def assert_block_coverage(u, blocks, m):
    """One uniform in each of the m blocks ((s-1)/m, s/m], s = 1..m."""
    assert np.array_equal(np.sort(blocks), np.arange(1, m + 1))
    assert np.all((blocks - 1 <= m * u) & (m * u <= blocks))


def assert_values_inside_support(dist, batch):
    np.testing.assert_array_equal(batch.values, dist.quantile(batch.uniforms))
    lo, hi = dist.support
    assert np.all((batch.values > lo) & (batch.values < hi))


class TestCoverageProperties:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(LAWS, st.integers(1, 5000), SEEDS)
    def test_qs_covers_every_block(self, dist, m, seed):
        batch = sample_qs(dist, m, seed=seed)
        assert_block_coverage(batch.uniforms, batch.blocks, m)
        assert_values_inside_support(dist, batch)

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(LAWS, LAYERS, SEEDS)
    def test_lqs_covers_every_block_of_every_layer(self, dist, layers, seed):
        batch = sample_lqs(dist, layers, seed=seed)
        assert batch.m == sum(layers)
        for k, mk in enumerate(layers, start=1):
            in_layer = batch.layer_index == k
            assert_block_coverage(batch.uniforms[in_layer], batch.blocks[in_layer], mk)
        assert_values_inside_support(dist, batch)


class TestMarginalLaw:
    """Pooled values over replicates keep the target marginal distribution."""

    @pytest.mark.parametrize(
        "dist,ref_cdf",
        [
            (Uniform01(), stats.uniform.cdf),
            (Normal(0, 1), stats.norm.cdf),
            (Beta(2, 2), stats.beta(2, 2).cdf),
            (Gamma(2, 5), stats.gamma(2, scale=0.2).cdf),
        ],
    )
    @pytest.mark.parametrize("method", ["iid", "qs", "lqs"])
    def test_continuous_families_pass_ks(self, dist, ref_cdf, method):
        rng = np.random.default_rng(41)
        reps, m = 250, 30
        if method == "iid":
            u, _ = iid_uniform_batches(m, reps, rng)
        elif method == "qs":
            u, _ = qs_uniform_batches(m, reps, rng)
        else:
            u, _ = lqs_uniform_batches((18, 9, 3), reps, rng)
        pooled = dist.quantile(u.ravel())
        _, p_value = stats.kstest(pooled, ref_cdf)
        assert p_value > KS_ALPHA

    @pytest.mark.parametrize("method", ["iid", "qs", "lqs"])
    def test_discrete_law_passes_chi_square(self, method):
        rng = np.random.default_rng(42)
        reps, m = 400, 30
        if method == "iid":
            u, _ = iid_uniform_batches(m, reps, rng)
        elif method == "qs":
            u, _ = qs_uniform_batches(m, reps, rng)
        else:
            u, _ = lqs_uniform_batches((18, 9, 3), reps, rng)
        pooled = DISCRETE.quantile(u.ravel())
        counts = np.array([np.sum(pooled == x) for x in DISCRETE.points])
        assert counts.sum() == pooled.size
        _, p_value = stats.chisquare(counts, DISCRETE.probs * pooled.size)
        assert p_value > KS_ALPHA


class TestDeterminism:
    @pytest.mark.parametrize("method", ["iid", "qs", "lqs"])
    def test_same_seed_identical_batches(self, method):
        def draw():
            if method == "iid":
                return sample_iid(Normal(0, 1), 25, seed=99)
            if method == "qs":
                return sample_qs(Normal(0, 1), 25, seed=99)
            return sample_lqs(Normal(0, 1), (13, 8, 4), seed=99)

        b1, b2 = draw(), draw()
        np.testing.assert_array_equal(b1.uniforms, b2.uniforms)
        np.testing.assert_array_equal(b1.values, b2.values)
        np.testing.assert_array_equal(b1.blocks, b2.blocks)
        assert b1.seed == b2.seed == 99

    def test_different_seeds_differ(self):
        b1 = sample_qs(Uniform01(), 25, seed=1)
        b2 = sample_qs(Uniform01(), 25, seed=2)
        assert not np.array_equal(b1.uniforms, b2.uniforms)

    def test_unseeded_batches_record_their_seed(self):
        b1 = sample_qs(Uniform01(), 10)
        b2 = sample_qs(Uniform01(), 10, seed=b1.seed)
        np.testing.assert_array_equal(b1.uniforms, b2.uniforms)

    def test_spawn_seed_is_stable_and_distinct(self):
        assert spawn_seed(7, 0) == spawn_seed(7, 0)
        children = {spawn_seed(7, r) for r in range(200)}
        assert len(children) == 200
        assert spawn_seed(7, 0) != spawn_seed(8, 0)

    def test_replicate_streams_are_order_independent(self):
        # Each replicate is a pure function of (master seed, index).
        natural = [sample_qs(Uniform01(), 6, seed=spawn_seed(5, r)).uniforms
                   for r in range(8)]
        scrambled_order = [5, 2, 7, 0, 3, 6, 1, 4]
        scrambled = {r: sample_qs(Uniform01(), 6, seed=spawn_seed(5, r)).uniforms
                     for r in scrambled_order}
        for r in range(8):
            np.testing.assert_array_equal(natural[r], scrambled[r])


class TestChildGenerators:
    """The vectorised replicate seeding against numpy's scalar SeedSequence:
    child seeds, PCG64 seed words and the Generators' draws are bit for bit
    ``default_rng(SeedSequence(seed, spawn_key=(r,)))``, for master seeds of
    one to seven 32-bit words and at both ends of the index range."""

    MASTER_SEEDS = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, 2 ** 64,
                    2 ** 128 + 3, 2 ** 200]
    WINDOWS = [(0, 200), (2 ** 32 - 200, 2 ** 32)]

    @staticmethod
    def oracle_child(seed, r):
        return int(np.random.SeedSequence(seed, spawn_key=(r,)).generate_state(1, np.uint64)[0])

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    @pytest.mark.parametrize("start,stop", WINDOWS)
    def test_child_seeds_equal_seed_sequence(self, seed, start, stop):
        children = _child_seeds(seed, start, stop)
        assert children.dtype == np.uint64
        assert children.tolist() == [self.oracle_child(seed, r) for r in range(start, stop)]

    @pytest.mark.parametrize("seed", MASTER_SEEDS)
    @pytest.mark.parametrize("start,stop", WINDOWS)
    def test_generators_draw_as_default_rng(self, seed, start, stop):
        generators = _child_generators(seed, start, stop)
        assert len(generators) == stop - start
        for r, g in zip(range(start, stop), generators):
            oracle = np.random.default_rng(self.oracle_child(seed, r))
            np.testing.assert_array_equal(g.random(3), oracle.random(3))
            np.testing.assert_array_equal(g.permuted(np.arange(10)), oracle.permuted(np.arange(10)))
            np.testing.assert_array_equal(g.integers(0, 2 ** 40, 3), oracle.integers(0, 2 ** 40, 3))

    def test_pcg64_keys_equal_seed_sequence(self):
        # One- and two-word children, at both ends of each word count.
        children = [0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1]
        keys = _pcg64_keys(np.array(children, dtype=np.uint64))
        assert keys.shape == (5, 4) and keys.dtype == np.uint64
        for c, row in zip(children, keys):
            np.testing.assert_array_equal(row, np.random.SeedSequence(c).generate_state(4, np.uint64))

    @pytest.mark.parametrize("start,stop", [(2 ** 32, 2 ** 32 + 1), (2 ** 32 - 1, 2 ** 32 + 1),
                                            (-1, 3)])
    def test_indices_beyond_one_word_are_rejected(self, start, stop):
        with pytest.raises(DomainError):
            _child_seeds(1, start, stop)
        with pytest.raises(DomainError):
            _child_generators(1, start, stop)


class TestUniformsDispatch:
    @pytest.mark.parametrize("m", [1, 2, 7, 100, 2000])
    @pytest.mark.parametrize("seed", range(5))
    def test_sample_qs_keeps_its_permutation_stream(self, m, seed):
        # sample_qs once drew a random permutation of 1..m and then m
        # uniforms; as the reps=1 row of qs_uniform_batches it must draw the
        # same values.
        rng = np.random.default_rng(seed)
        perm = rng.permutation(np.arange(1, m + 1))
        u = (perm - rng.random(m)) / m
        np.copyto(u, np.nextafter(1.0, 0.0), where=(u >= 1.0))
        batch = sample_qs(Normal(0, 1), m, seed=seed)
        np.testing.assert_array_equal(batch.uniforms, u)
        np.testing.assert_array_equal(batch.blocks, perm)

    @pytest.mark.parametrize("method,size", [("iid", 12), ("qs", 12), ("lqs", (6, 4, 2))])
    def test_single_samples_are_the_first_batch_row(self, method, size):
        u, layer_idx = GENERATORS[method](size, 1, np.random.default_rng(8))
        blocks = reference_uniforms(method, size, 1, np.random.default_rng(8))[1]
        batch = {"iid": sample_iid, "qs": sample_qs, "lqs": sample_lqs}[method](
            Gamma(2, 5), size, seed=8
        )
        np.testing.assert_array_equal(batch.uniforms, u[0])
        np.testing.assert_array_equal(batch.blocks, blocks[0])
        np.testing.assert_array_equal(batch.values, Gamma(2, 5).quantile(u[0]))
        assert (layer_idx is None) == (batch.layer_index is None) == (method != "lqs")
        if layer_idx is not None:
            np.testing.assert_array_equal(batch.layer_index, layer_idx[0])
            assert batch.layers == LayerSpec(size)

    def test_unknown_method_rejected(self):
        with pytest.raises(DomainError, match="method must be one of"):
            uniforms("sobol", 5, 1, np.random.default_rng(0))

    @pytest.mark.parametrize("given,method,size", [("QS", "qs", 9), (" Lqs ", "lqs", (4, 5)),
                                                   ("IID", "iid", 9)])
    def test_method_names_ignore_case_and_spaces(self, given, method, size):
        u = uniforms(given, size, 3, np.random.default_rng(5))
        ref_u = uniforms(method, size, 3, np.random.default_rng(5))
        assert u.tobytes() == ref_u.tobytes()
        m, layers = (None, size) if method == "lqs" else (size, None)
        batch = sample(Uniform01(), given, m, seed=5, layers=layers)
        ref = sample(Uniform01(), method, m, seed=5, layers=layers)
        assert batch.method == ref.method == method
        assert batch.uniforms.tobytes() == ref.uniforms.tobytes()
        assert (batch.layer_index is None) == (ref.layer_index is None)
        if ref.layer_index is not None:
            np.testing.assert_array_equal(batch.layer_index, ref.layer_index)


def reference_uniforms(method, size, reps, rng):
    """The generators before they worked in place: tiled permutations copied
    by ``permuted``, LQS layers concatenated from part lists and gathered by
    ``take_along_axis``.  The in-place generators must match them bit for
    bit, since both make the same RNG calls in the same order."""

    def qs(m):
        perms = rng.permuted(np.tile(np.arange(1, m + 1), (reps, 1)), axis=1)
        r = rng.random((reps, m))
        u = (perms - r) / m
        np.copyto(u, np.nextafter(1.0, 0.0), where=(u >= 1.0))
        return u, perms.astype(np.int64)

    if method == "iid":
        u = rng.random((reps, size))
        np.copyto(u, 2.0 ** -53, where=(u == 0.0))
        return u, np.ceil(size * u).astype(np.int64), None
    if method == "qs":
        return (*qs(size), None)
    layers = (size,) if isinstance(size, int) else size
    parts = [(*qs(mk), np.full((reps, mk), k, dtype=np.int64))
             for k, mk in enumerate(layers, start=1)]
    u, blocks, layer_idx = (np.concatenate(arrays, axis=1) for arrays in zip(*parts))
    shuffle = rng.permuted(np.tile(np.arange(sum(layers)), (reps, 1)), axis=1)
    return tuple(np.take_along_axis(x, shuffle, axis=1) for x in (u, blocks, layer_idx))


SIZES = (1, (1,) * 6, (12,), (18, 9, 3), (500, 300, 200))
# Shapes that stress the generators' row blocks: one row per block (m above
# the block's cell count), and one row past a block boundary of the whole
# row or of the widest layer.
BLOCK_SIZE_REPS = [((_BLOCK_CELLS // 2 + 3, _BLOCK_CELLS // 2 + 2), 3),
                   ((18, 9, 3), _BLOCK_CELLS // 30 + 1), ((18, 9, 3), _BLOCK_CELLS // 18 + 1)]
# 20000 replicates of m = 1000 would hold ~1.3 GB in the reference LQS
# generator; that size runs at 2000 replicates instead.
SIZE_REPS = [(size, reps) for size in SIZES for reps in (1, 7, 20_000)
             if reps * np.sum(size) <= 10 ** 6] + [((500, 300, 200), 2000)] + BLOCK_SIZE_REPS


GENERATORS = {"iid": iid_uniform_batches, "qs": qs_uniform_batches, "lqs": lqs_uniform_batches}


def generator_draw(method, size, reps, rng):
    """The method's generator, which for LQS builds the layer index."""
    return GENERATORS[method](size, reps, rng)


PEAK_LIMITS = [("qs", 30, 20), ("lqs", (18, 9, 3), 28), ("iid", 30, 12)]


def peak_budget(method, m, reps, generators=0, layer_index=True):
    """The bytes a generator may peak at, fixed from its design: its output
    (8 B a cell, 16 B for LQS with its layer index), one row block of 8-byte
    cells, 16 B per Generator of a sequence (the checked list and a block's
    slice of it), and 128 KiB for numpy's 8192-element casting buffer and
    small objects."""
    output = (16 if method == "lqs" and layer_index else 8) * reps * m
    block = 8 * min(reps, max(1, _BLOCK_CELLS // m)) * m
    return output + block + 16 * generators + 128 * 1024


def traced_peak_per_cell(method, size, reps, rng, draw=generator_draw):
    """The tracemalloc peak of ``draw(method, size, reps, rng)`` per
    (replicate x point) cell, at m = 30."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        out = draw(method, size, reps, rng)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()
    assert (out[0] if isinstance(out, tuple) else out).shape == (reps, 30)
    return peak / (reps * 30)


class TestInPlaceGenerators:
    """The generators fill their outputs in place; the arrays they return
    are the reference's, bit for bit, and C-ordered, and the blocks
    ceil(m_k * U) are the reference's block indices."""

    @pytest.mark.parametrize("method", ["iid", "qs", "lqs"])
    @pytest.mark.parametrize("size,reps", SIZE_REPS)
    def test_bit_equal_to_reference_and_c_ordered(self, method, size, reps):
        m = int(np.sum(size))
        size = size if method == "lqs" else m
        u_only = uniforms(method, size, reps, np.random.default_rng(reps + m))
        out = GENERATORS[method](size, reps, np.random.default_rng(reps + m))
        u, blocks, layer_idx = reference_uniforms(
            method, size, reps, np.random.default_rng(reps + m))
        assert len(out) == 2
        assert u_only.flags.c_contiguous and u_only.tobytes() == out[0].tobytes()
        assert (out[1] is None) == (layer_idx is None) == (method != "lqs")
        for got, want in zip(out, (u, layer_idx)):
            if want is None:
                continue
            assert got.shape == (reps, m)
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
            assert got.flags.c_contiguous
        assert out[0].dtype == np.float64
        assert out[1] is None or out[1].dtype == np.int64
        sizes = m if layer_idx is None else np.atleast_1d(size)[layer_idx - 1]
        np.testing.assert_array_equal(np.ceil(sizes * out[0]).astype(np.int64), blocks)

    @pytest.mark.parametrize("method", ["iid", "qs", "lqs"])
    @pytest.mark.parametrize("size,reps", [(size, 7) for size in SIZES] + BLOCK_SIZE_REPS)
    def test_generator_per_row_is_each_generator_alone(self, method, size, reps):
        m = int(np.sum(size))
        size = size if method == "lqs" else m
        seeds = [spawn_seed(m, r) for r in range(reps)]
        u = uniforms(method, size, reps, [np.random.default_rng(s) for s in seeds])
        out = GENERATORS[method](size, reps, [np.random.default_rng(s) for s in seeds])
        rows = [GENERATORS[method](size, 1, np.random.default_rng(s)) for s in seeds]
        assert u.flags.c_contiguous and u.tobytes() == out[0].tobytes()
        assert (out[1] is None) == (method != "lqs")
        for got, want in zip(out, zip(*rows)):
            if got is None:
                continue
            assert got.shape == (reps, m)
            assert got.flags.c_contiguous
            assert got.dtype == (np.int64 if got is out[1] else np.float64)
            for row, one in zip(got, want):
                assert row.dtype == one.dtype
                assert row.tobytes() == one.tobytes()

    @pytest.mark.parametrize("method,size", [("iid", 4), ("qs", 4), ("lqs", (3, 1))])
    def test_generator_sequence_checked(self, method, size):
        rngs = [np.random.default_rng(s) for s in range(3)]
        with pytest.raises(DomainError, match="got 3 Generators for 2 replicates"):
            uniforms(method, size, 2, rngs)
        with pytest.raises(DomainError, match="got 2 Generators for 3 replicates"):
            uniforms(method, size, 3, iter(rngs[:2]))
        for bad in (rngs[:2] + [7], [np.random.RandomState(0)] * 3, 7):
            with pytest.raises(DomainError, match="numpy Generator or a sequence"):
                uniforms(method, size, 3, bad)

    @pytest.mark.parametrize("method,size,limit", PEAK_LIMITS)
    def test_traced_peak_bytes_per_cell(self, method, size, limit):
        # Outputs are 8 B a cell for IID and QS and 16 B for LQS with its
        # layer index.  Measured: 8.0, 9.0 and 16.0 B a cell.
        peak = traced_peak_per_cell(method, size, 20_000, np.random.default_rng(3))
        assert peak <= limit
        assert peak <= peak_budget(method, 30, 20_000) / (20_000 * 30)

    @pytest.mark.parametrize("method,size,limit", PEAK_LIMITS)
    def test_traced_peak_bytes_per_cell_generator_per_row(self, method, size, limit):
        # Each Generator draws into a view of one row of the same arrays;
        # only the list of Generators is added.  Measured: 8.3, 12.3 and
        # 16.3 B a cell, the block being larger against 5000 rows.
        rngs = [np.random.default_rng(s) for s in range(5000)]
        peak = traced_peak_per_cell(method, size, len(rngs), rngs)
        assert peak <= limit
        assert peak <= peak_budget(method, 30, 5000, generators=5000) / (5000 * 30)

    # Per-row Generators skip the 20000-row shapes, which only repeat the
    # smaller ones row by row.
    @pytest.mark.parametrize("size,reps,per_row",
                             [(size, reps, False) for size, reps in SIZE_REPS]
                             + [(size, reps, True) for size, reps in SIZE_REPS if reps < 20_000])
    def test_bulk_lqs_uniforms_are_the_indexed_ones(self, size, reps, per_row):
        # The bulk path shuffles U in place instead of gathering it by an
        # index; single-layer and all-unit shapes are where a layer's
        # columns are the whole row or one column.
        def rng():
            if per_row:
                return [np.random.default_rng(s) for s in range(reps)]
            return np.random.default_rng(reps)

        u = uniforms("lqs", size, reps, rng())
        assert u.dtype == np.float64 and u.flags.c_contiguous
        assert u.tobytes() == lqs_uniform_batches(size, reps, rng())[0].tobytes()

    @pytest.mark.parametrize("size", [(18, 9, 3), (12,), (1,) * 6, (_BLOCK_CELLS // 2 + 3, 2)])
    @pytest.mark.parametrize("per_row", [False, True])
    def test_layer_index_leaves_each_generator_where_the_bulk_path_does(self, size, per_row):
        # The index path rewinds each Generator before it shuffles U, so it
        # must leave every Generator at the state the bulk path leaves it.
        reps = 3

        def rngs():
            return [np.random.default_rng(s) for s in range(reps if per_row else 1)]

        bulk, indexed = rngs(), rngs()
        uniforms("lqs", size, reps, bulk if per_row else bulk[0])
        lqs_uniform_batches(size, reps, indexed if per_row else indexed[0])
        for a, b in zip(bulk, indexed):
            assert a.bit_generator.state == b.bit_generator.state
            assert a.random(4).tobytes() == b.random(4).tobytes()

    @pytest.mark.parametrize("reps,generators", [(20_000, 0), (5000, 5000)])
    def test_bulk_lqs_traced_peak_fits_an_8_byte_output(self, reps, generators):
        # Measured: 9.0 and 12.4 B a cell; with the index, 16.0 and 16.3.
        rng = ([np.random.default_rng(s) for s in range(reps)] if generators
               else np.random.default_rng(3))
        peak = traced_peak_per_cell("lqs", (18, 9, 3), reps, rng, draw=uniforms)
        budget = peak_budget("lqs", 30, reps, generators=generators, layer_index=False)
        assert peak <= budget / (reps * 30)

    @pytest.mark.parametrize("blocks", [(1,), (3, 4), (1, 5, 2, 1), (2, 2, 2, 1, 1)])
    def test_numpy_draws_over_row_blocks_equal_one_call(self, blocks):
        reps, m = sum(blocks), 7
        whole_u = np.random.default_rng(4).random((reps, m))
        whole_p = np.random.default_rng(4).permuted(np.tile(np.arange(m), (reps, 1)), axis=1)
        u, p = np.empty((reps, m)), np.tile(np.arange(m), (reps, 1))
        rng_u, rng_p = np.random.default_rng(4), np.random.default_rng(4)
        start = 0
        for n in blocks:
            rng_u.random(out=u[start:start + n])
            rng_p.permuted(p[start:start + n], axis=1, out=p[start:start + n])
            start += n
        assert u.tobytes() == whole_u.tobytes()
        np.testing.assert_array_equal(p, whole_p)

    @pytest.mark.parametrize("per_row", [False, True])
    @pytest.mark.parametrize("column", [False, True])
    def test_permuted_replays_after_rewinding_the_state(self, per_row, column):
        # LQS builds its layer index this way: int64 labels shuffled, the
        # Generator rewound, then the float64 U shuffled by the same swaps.
        reps, m = 6, 11
        u = np.random.default_rng(8).random((reps, m))

        def array(dtype):
            if not column:
                return np.empty((reps, m), dtype=dtype)
            wide = np.zeros((reps, 3 * m), dtype=dtype)[:, m:2 * m]
            assert not wide.flags.c_contiguous
            return wide

        index, values, alone = array(np.int64), array(np.float64), u.copy()
        index[...], values[...] = np.arange(m), u
        rows = [slice(i, i + 1) for i in range(reps)] if per_row else [slice(None)]
        for i, r in enumerate(rows):
            g, g_alone = np.random.default_rng(i), np.random.default_rng(i)
            state = g.bit_generator.state
            g.permuted(index[r], axis=1, out=index[r])
            g.bit_generator.state = state
            g.permuted(values[r], axis=1, out=values[r])
            g_alone.permuted(alone[r], axis=1, out=alone[r])
            assert g.random() == g_alone.random()
        assert np.ascontiguousarray(values).tobytes() == alone.tobytes()
        assert alone.tobytes() == np.take_along_axis(u, index, axis=1).tobytes()

    @pytest.mark.parametrize("dtype", [np.int8, np.int16, np.int64, np.float64, "column"])
    def test_permuted_swaps_do_not_depend_on_dtype_or_stride(self, dtype):
        # LQS draws its permutations into an int64 view of strided columns
        # and, without a layer index, shuffles the float64 U itself.
        reps, m = 5, 9
        want = np.tile(np.arange(m), (reps, 1))
        rng_want = np.random.default_rng(6)
        rng_want.permuted(want, axis=1, out=want)
        if dtype == "column":
            a = np.zeros((reps, 3 * m), dtype=np.int64)[:, m:2 * m]
            assert not a.flags.c_contiguous
        else:
            a = np.empty((reps, m), dtype=dtype)
        a[...] = np.arange(m)
        rng = np.random.default_rng(6)
        rng.permuted(a, axis=1, out=a)
        np.testing.assert_array_equal(a, want)
        assert rng.random() == rng_want.random()

    @pytest.mark.parametrize("per_row", [False, True])
    def test_permuting_values_in_place_equals_gathering_by_a_permuted_arange(self, per_row):
        reps, m = 6, 11
        u = np.random.default_rng(8).random((reps, m))
        index, values = np.tile(np.arange(m), (reps, 1)), u.copy()
        # One Generator per row shuffles its own row; one Generator all rows.
        rows = [slice(i, i + 1) for i in range(reps)] if per_row else [slice(None)]
        for i, r in enumerate(rows):
            for a in (index, values):
                np.random.default_rng(i).permuted(a[r], axis=1, out=a[r])
        assert values.tobytes() == np.take_along_axis(u, index, axis=1).tobytes()

    def test_maximum_raises_exactly_the_zeros(self):
        # rng.random returns multiples of 2^-53 in [0, 1).
        u = np.array([0.0, 2.0 ** -53, 2.0 ** -52, 3 * 2.0 ** -53, 0.0, 0.5,
                      1.0 - 2.0 ** -53])
        masked = u.copy()
        np.copyto(masked, 2.0 ** -53, where=(masked == 0.0))
        assert np.maximum(u, 2.0 ** -53, out=u).tobytes() == masked.tobytes()


class TestBlockEdges:
    @pytest.mark.parametrize("r", [0.0, 1.0 - 2.0 ** -53])
    def test_extreme_offsets_stay_inside_their_blocks(self, r):
        # rng.random can return either end of [0, 1 - 2^-53].  With either
        # offset, every U = (s - r)/m must lie strictly inside (0, 1) and its
        # block ceil(m * U) must be s, for every s <= m <= 2000.
        misplaced = []
        for m in range(1, 2001):
            perms = np.arange(1, m + 1, dtype=np.int64)
            u = np.full(m, r)
            _qs_place(perms, u, m, out=u)
            if not (np.all((u > 0.0) & (u < 1.0)) and np.array_equal(np.ceil(m * u), perms)):
                misplaced.append(m)
        assert misplaced == []


class TestLqsReductions:
    """Pooled over replicates, the k-th sorted uniform of one-layer LQS has
    the QS law Uniform((k-1)/m, k/m], and that of all-unit LQS the IID law
    Beta(k, m-k+1).  The m KS tests of a law run at KS_ALPHA / m each, so
    the law is rejected by chance with probability at most KS_ALPHA."""

    M, REPS = 6, 4000

    def sorted_uniforms(self, layers, seed):
        u, _ = lqs_uniform_batches(layers, self.REPS, np.random.default_rng(seed))
        u.sort(axis=1)
        return u

    def test_one_layer_has_the_qs_law(self):
        m = self.M
        u = self.sorted_uniforms((m,), seed=611)
        for k in range(1, m + 1):
            law = stats.uniform((k - 1) / m, 1 / m)
            assert stats.kstest(u[:, k - 1], law.cdf).pvalue > KS_ALPHA / m, k

    def test_unit_layers_have_the_iid_law(self):
        m = self.M
        u = self.sorted_uniforms((1,) * m, seed=612)
        for k in range(1, m + 1):
            law = stats.beta(k, m - k + 1)
            assert stats.kstest(u[:, k - 1], law.cdf).pvalue > KS_ALPHA / m, k


class TestCustomQuantileSampling:
    def test_quantile_only_law_is_sampleable(self):
        # A quantile function alone is enough for inverse-transform sampling.
        from qstrat.distributions import Custom

        tri = Custom(quantile=lambda p: np.sqrt(p), support=(0.0, 1.0))
        batch = sample_qs(tri, 25, seed=81)
        assert np.array_equal(np.sort(batch.blocks), np.arange(1, 26))
        pooled = np.concatenate(
            [sample_qs(tri, 25, seed=spawn_seed(81, r)).values for r in range(200)]
        )
        _, p_value = stats.kstest(pooled, lambda x: np.clip(x, 0, 1) ** 2)
        assert p_value > KS_ALPHA


class TestUniformRangeGuards:
    def test_qs_uniforms_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(55)
        u, _ = qs_uniform_batches(4, 50_000, rng)
        assert np.all((u > 0.0) & (u < 1.0))

    def test_iid_uniforms_strictly_inside_unit_interval(self):
        rng = np.random.default_rng(56)
        u, _ = iid_uniform_batches(4, 50_000, rng)
        assert np.all((u > 0.0) & (u < 1.0))

    def test_size_validation(self):
        rng = np.random.default_rng(57)
        with pytest.raises(DomainError):
            qs_uniform_batches(0, 5, rng)
        with pytest.raises(DomainError):
            sample_iid(Uniform01(), 0, seed=1)
