import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tbp import (
    Classification,
    Problem,
    RngStream,
    Setting,
    ShapeClass,
    augment,
    gap_distorted,
    gaps,
    make_setting,
    sample_mean,
    shape_check,
    true_labels,
)
from tbp.env import GAP_RTOL, VariateBlock


def P(means, sigma=1.0, tau=0.0, **kw):
    return Problem(np.asarray(means, dtype=float), sigma, tau, **kw)


class TestTrueLabels:
    def test_signs(self):
        assert list(true_labels(P([-1, 1])).labels) == [-1, 1]

    def test_boundary_is_positive(self):
        assert list(true_labels(P([0.0])).labels) == [1]

    def test_elementwise(self):
        got = true_labels(P([-2, -1, -0.5, 1, 2])).labels
        assert list(got) == [-1, -1, -1, 1, 1]

    def test_sentinels_excluded(self):
        aug = augment(P([-1, 1]), ShapeClass.MONOTONE)
        assert list(true_labels(aug).labels) == [-1, 1]


class TestGaps:
    def test_absolute_differences(self):
        g = gaps(P([-1, 0.5, 2]))
        np.testing.assert_allclose(g.gaps, [1, 0.5, 2])
        assert g.delta_min == 0.5

    def test_degenerate(self):
        g = gaps(P([0, 0, 0]))
        np.testing.assert_allclose(g.gaps, [0, 0, 0])
        assert g.delta_min == 0

    def test_min_of_vee(self):
        assert gaps(P([-1, 0.5, 1, 0.5, -1])).delta_min == 0.5

    def test_sentinel_gaps_are_infinite(self):
        aug = augment(P([-1, 1]), ShapeClass.MONOTONE)
        g = gaps(aug)
        assert g.gaps[0] == math.inf and g.gaps[-1] == math.inf
        assert g.delta_min == 1.0


class TestShapeCheck:
    def test_monotone(self):
        assert shape_check(P([-2, -1, 0.5]), ShapeClass.MONOTONE)
        assert not shape_check(P([-2, 1, 0.5]), ShapeClass.MONOTONE)

    def test_concave_via_differences(self):
        # successive differences (2, 2, -1.5, -2.5) are non-increasing
        assert shape_check(P([-3, -1, 1, -0.5, -3]), ShapeClass.CONCAVE)
        assert not shape_check(P([0, -1, 1]), ShapeClass.CONCAVE)

    def test_relaxed_monotone_needs_split(self):
        assert not shape_check(P([1, -1, 1]), ShapeClass.RELAXED_MONOTONE)
        assert shape_check(P([-1, -3, 2, 1]), ShapeClass.RELAXED_MONOTONE)
        assert shape_check(P([1, 2, 3]), ShapeClass.RELAXED_MONOTONE)
        assert shape_check(P([-1, -2]), ShapeClass.RELAXED_MONOTONE)

    def test_decreasing(self):
        assert shape_check(P([3, 1, 1, -2]), ShapeClass.MONOTONE_DECREASING)
        assert not shape_check(P([3, 1, 2]), ShapeClass.MONOTONE_DECREASING)

    def test_unstructured_always_true(self):
        assert shape_check(P([5, -5, 5]), ShapeClass.UNSTRUCTURED)


def _brute_force(means, tau, shape):
    K = len(means)
    if shape is ShapeClass.MONOTONE:
        return all(means[i] <= means[i + 1] for i in range(K - 1))
    if shape is ShapeClass.MONOTONE_DECREASING:
        return all(means[i] >= means[i + 1] for i in range(K - 1))
    if shape is ShapeClass.RELAXED_MONOTONE:
        return any(
            all(m <= tau for m in means[:k]) and all(m >= tau for m in means[k:])
            for k in range(K + 1)
        )
    if shape is ShapeClass.CONCAVE:
        return all(0.5 * means[k - 1] + 0.5 * means[k + 1] <= means[k] for k in range(1, K - 1))
    return True


@settings(max_examples=300, deadline=None)
@given(
    means=st.lists(st.floats(-10, 10, allow_nan=False), min_size=1, max_size=12),
    tau=st.floats(-2, 2, allow_nan=False),
    shape=st.sampled_from(list(ShapeClass)),
)
def test_shape_check_matches_brute_force(means, tau, shape):
    problem = Problem(np.asarray(means), 1.0, tau)
    assert shape_check(problem, shape) == _brute_force(means, tau, shape)


class TestSampleMean:
    def test_noiseless_is_exact(self):
        mean, cost = sample_mean(P([0.7], sigma=0.0), 1, 5, RngStream(0))
        assert mean == 0.7 and cost == 5

    def test_sentinel_is_free_and_exact(self):
        aug = augment(P([-1, 1]), ShapeClass.MONOTONE)
        mean, cost = sample_mean(aug, 1, 100, RngStream(0))
        assert mean == -math.inf and cost == 0
        mean, cost = sample_mean(aug, aug.K, 100, RngStream(0))
        assert mean == math.inf and cost == 0

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_large_n_concentrates(self, seed):
        mean, cost = sample_mean(P([0.0]), 1, 10**6, RngStream(seed))
        assert abs(mean) <= 0.005  # 5 sigma / sqrt(n)
        assert cost == 10**6

    def test_bit_identical_for_same_stream(self):
        a = [sample_mean(P([0.3]), 1, 7, RngStream(99, 3))[0] for _ in range(1)]
        b = [sample_mean(P([0.3]), 1, 7, RngStream(99, 3))[0] for _ in range(1)]
        assert a == b

    def test_distinct_streams_differ(self):
        a = sample_mean(P([0.3]), 1, 7, RngStream(99, 0))[0]
        b = sample_mean(P([0.3]), 1, 7, RngStream(99, 1))[0]
        assert a != b

    def test_invalid_arm(self):
        with pytest.raises(IndexError):
            sample_mean(P([0.0]), 2, 1, RngStream(0))


class TestMakeSetting:
    def test_s2_k4(self):
        p = make_setting(Setting.S2, 4, 0.3, 0.0)
        np.testing.assert_allclose(p.means, [-0.3, -0.3, 0.3, 0.3])

    def test_s1_k4(self):
        p = make_setting(Setting.S1, 4, 0.2, 0.0)
        np.testing.assert_allclose(p.means, [-100, -100, 0.2, 100])
        assert shape_check(p, ShapeClass.MONOTONE)

    def test_s2_concave_tent(self):
        p = make_setting(Setting.S2_CONCAVE, 5, 0.5, 0.0)
        np.testing.assert_allclose(p.means, [-0.5, 0.5, 1.5, 0.5, -0.5])
        assert shape_check(p, ShapeClass.CONCAVE)

    @pytest.mark.parametrize("K", range(3, 30))
    def test_s2_positive_count(self, K):
        labels = true_labels(make_setting(Setting.S2, K, 0.5, 1.0)).labels
        assert int((labels == 1).sum()) == math.ceil(K / 2)

    @pytest.mark.parametrize("K", range(3, 30))
    def test_s2_concave_contract(self, K):
        p = make_setting(Setting.S2_CONCAVE, K, 0.4, -1.0)
        assert shape_check(p, ShapeClass.CONCAVE)
        assert gaps(p).delta_min >= 0.2
        assert np.any(p.means > p.tau)

    def test_sigma_default_and_override(self):
        assert make_setting(Setting.S2, 4, 0.3, 0.0).sigma == 1.0
        assert make_setting(Setting.S2, 4, 0.3, 0.0, sigma=0.5).sigma == 0.5

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            make_setting(Setting.S1, 2, 0.2, 0.0)

    @pytest.mark.parametrize("setting", [Setting.S1, Setting.S2, Setting.S2_CONCAVE])
    @pytest.mark.parametrize("tau", [1e17, -1e17, 2.0**60])
    def test_rejects_gap_lost_to_rounding(self, setting, tau):
        # tau + 0.1 == tau here: every gap would silently become 0.
        assert gap_distorted(0.1, tau)
        with pytest.raises(ValueError, match="rounds away"):
            make_setting(setting, 4, 0.1, tau)

    @pytest.mark.parametrize("setting", [Setting.S1, Setting.S2, Setting.S2_CONCAVE])
    @pytest.mark.parametrize("tau", [1e15, -1e15])
    def test_rejects_gap_rounding_distorts(self, setting, tau):
        # The spacing of doubles is 0.125 here: a gap of 0.1 would realize as 0.125
        # (and the tent's 0.3 as 0.25).
        assert abs((tau + 0.1) - tau) == 0.125
        assert gap_distorted(0.1, tau)
        with pytest.raises(ValueError, match="rounds away"):
            make_setting(setting, 4, 0.1, tau)

    @pytest.mark.parametrize("setting", [Setting.S1, Setting.S2, Setting.S2_CONCAVE])
    def test_keeps_gap_rounding_moves_within_tolerance(self, setting):
        tau = 1e8  # a gap of 0.1 realizes as 0.1 - 6e-9
        assert not gap_distorted(0.1, tau)
        delta_min = gaps(make_setting(setting, 4, 0.1, tau)).delta_min
        assert delta_min != 0.1 and abs(delta_min - 0.1) <= GAP_RTOL * 0.1


class TestAugment:
    def test_monotone(self):
        aug = augment(P([-2, -1, -0.5, 1, 2]), ShapeClass.MONOTONE)
        assert aug.K == 7
        assert aug.means[0] == -math.inf and aug.means[-1] == math.inf
        np.testing.assert_allclose(aug.means[1:-1], [-2, -1, -0.5, 1, 2])

    def test_concave(self):
        aug = augment(P([-3, -1, 1, 0.5, -2]), ShapeClass.CONCAVE)
        assert aug.K == 7
        assert aug.means[0] == -math.inf and aug.means[-1] == -math.inf

    def test_round_trip_indices(self):
        p = P([-2, -1, -0.5, 1, 2])
        aug = augment(p, ShapeClass.MONOTONE)
        for j in range(1, p.K + 1):
            assert aug.to_original(aug.to_augmented(j)) == j

    def test_shape_preserved(self):
        mono = P([-2, -1, 0.5, 1])
        assert shape_check(augment(mono, ShapeClass.MONOTONE), ShapeClass.RELAXED_MONOTONE)
        conc = P([-3, -1, 1, 0.5, -2])
        assert shape_check(augment(conc, ShapeClass.CONCAVE), ShapeClass.CONCAVE)

    def test_double_augment_rejected(self):
        aug = augment(P([-1, 1]), ShapeClass.MONOTONE)
        with pytest.raises(ValueError):
            augment(aug, ShapeClass.MONOTONE)


class TestTypes:
    def test_classification_validation(self):
        with pytest.raises(ValueError):
            Classification(np.array([1, 0, -1]))

    def test_classification_equality(self):
        assert Classification(np.array([1, -1])) == Classification(np.array([1, -1]))
        assert Classification(np.array([1, -1])) != Classification(np.array([1, 1]))

    def test_problem_rejects_nonfinite_means(self):
        with pytest.raises(ValueError):
            P([1.0, math.inf])

    def test_problem_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            P([1.0], sigma=-1.0)

    def test_means_are_frozen(self):
        p = P([1.0, 2.0])
        with pytest.raises(ValueError):
            p.means[0] = 5.0


class TestArraysStayReadOnly:
    """An instance's arrays view an immutable buffer: writes cannot be re-enabled."""

    @staticmethod
    def assert_sealed(array, value):
        with pytest.raises(ValueError):
            array.setflags(write=True)
        with pytest.raises(ValueError):
            array[0] = value
        assert not array.flags.writeable

    def test_problem_means(self):
        source = np.array([1.0, 2.0, 3.0])
        p = Problem(source, 1.0, 0.0)
        self.assert_sealed(p.means, -5.0)
        source[0] = -5.0  # the instance holds a copy
        assert p.means.tolist() == [1.0, 2.0, 3.0]
        self.assert_sealed(augment(p, ShapeClass.MONOTONE).means, -5.0)

    def test_gap_vector_gaps(self):
        g = gaps(P([-1.0, 0.5, 2.0]))
        self.assert_sealed(g.gaps, 0.0)
        assert g.gaps.tolist() == [1.0, 0.5, 2.0]

    def test_classification_labels(self):
        labels = true_labels(P([-1.0, 0.5, 2.0])).labels
        self.assert_sealed(labels, 1)
        assert labels.tolist() == [-1, 1, 1]
        assert Classification(labels) == Classification([-1, 1, 1])

    def test_a_copy_is_built_afresh(self):
        p = P([-1.0, 0.5, 2.0])
        augment(p, ShapeClass.MONOTONE)
        q = pickle.loads(pickle.dumps(p))
        assert q.means.tolist() == p.means.tolist() and (q.sigma, q.tau) == (p.sigma, p.tau)
        self.assert_sealed(q.means, 0.0)
        assert augment(q, ShapeClass.MONOTONE) is not augment(p, ShapeClass.MONOTONE)
        g, labels = pickle.loads(pickle.dumps((gaps(p), true_labels(p))))
        self.assert_sealed(g.gaps, 0.0)
        self.assert_sealed(labels.labels, 1)
        assert (g.gaps.tolist(), g.delta_min) == ([1.0, 0.5, 2.0], 0.5)
        assert labels == true_labels(p)


class TestStreamKeys:
    @pytest.mark.parametrize("seed,index", [
        (1.7, 2.9), (2.5, 0), (0, 2.5), (-1, 0), (2**64, 0), (0, -1),
        (float("nan"), 0), (float("inf"), 0), ("3", 0), (None, 0),
    ])
    def test_a_key_no_stream_can_take_is_refused(self, seed, index):
        with pytest.raises(ValueError, match="must be a nonnegative integer"):
            RngStream(seed, index)

    def test_whole_numbers_of_any_type_name_the_same_stream(self):
        for seed, index in ((3.0, 2.0), (np.int64(3), np.uint8(2)), (np.float64(3.0), 2)):
            stream = RngStream(seed, index)
            assert (stream.seed, stream.stream_index) == (3, 2)
            assert type(stream.seed) is int and type(stream.stream_index) is int
            assert stream.generator.standard_normal() == RngStream(3, 2).generator.standard_normal()
        assert RngStream(2**64 - 1).seed == 2**64 - 1

    @pytest.mark.parametrize("seed,start,stop", [
        (2.5, 0, 3), (-1, 0, 3), (2**64, 0, 3), (1, 0.5, 3), (1, -1, 3), (1, 0, 3.5), (1, 3, 3),
    ])
    def test_a_block_no_stream_can_fill_is_refused(self, seed, start, stop):
        with pytest.raises(ValueError):
            VariateBlock(seed, start, stop)


class TestReadAhead:
    """``read_ahead(n)`` shows the next ``n`` variates and consumes none; ``consume(c)``
    moves the stream past ``c`` of them, settled only when the stream is read again."""

    @staticmethod
    def drawn(stream, n):
        return stream.generator.standard_normal(n).tolist()

    @pytest.mark.parametrize("used", [0, 1, 7, 12])
    def test_a_later_reader_sees_what_a_scalar_reader_would(self, used):
        stream = RngStream(5, 1)
        ahead = stream.read_ahead(12)
        assert ahead == self.drawn(RngStream(5, 1), 12)
        stream.consume(used)
        scalar = RngStream(5, 1)
        for _ in range(used):
            scalar.generator.standard_normal()
        assert self.drawn(stream, 4) == self.drawn(scalar, 4)

    def test_read_aheads_chain_as_one_stream(self):
        stream, whole = RngStream(8, 3), self.drawn(RngStream(8, 3), 30)
        assert stream.read_ahead(10) == whole[:10]
        stream.consume(4)
        stream.consume(2)  # consumes add up
        assert stream.read_ahead(10) == whole[6:16]
        stream.consume(3)
        assert self.drawn(stream, 5) == whole[9:14]
        stream.consume(5)  # with no read-ahead pending, consume draws
        assert self.drawn(stream, 2) == whole[19:21]

    def test_without_consume_the_stream_does_not_move(self):
        stream = RngStream(9)
        first = stream.read_ahead(6)
        assert stream.read_ahead(6) == first
        assert self.drawn(stream, 6) == first

    def test_a_walk_settles_its_stream_only_when_it_is_read_again(self):
        stream = RngStream(11, 4)
        ahead = stream.read_ahead(50)
        stream.consume(20)
        gen = stream._ahead[0]
        # Unsettled: the generator stands past all 50 variates it drew ahead.
        assert gen.bit_generator.state == self.past(50)
        assert stream.generator is gen  # settled on this read
        assert gen.bit_generator.state == self.past(20)
        assert self.drawn(stream, 3) == ahead[20:23]

    @staticmethod
    def past(n):
        gen = RngStream(11, 4).generator
        gen.standard_normal(n)
        return gen.bit_generator.state


#: Stream indices near ``2**32`` and ``2**64``, where a spawn key takes a second and a third word.
_INDICES = st.sampled_from([0, 2**32, 2**64]).flatmap(
    lambda edge: st.integers(max(edge - 40, 0), edge + 40))


class TestBlockSeeding:
    """A block seeds its streams without numpy's per-stream builds, with the same bytes."""

    @settings(max_examples=300, deadline=None)
    @given(seed=st.integers(0, 2**64 - 1), start=_INDICES, rows=st.integers(1, 40),
           widths=st.lists(st.integers(1, 40), min_size=1, max_size=3))
    @example(seed=2**64 - 1, start=2**32 - 40, rows=40, widths=[3, 7])
    @example(seed=2**32, start=2**32 - 3, rows=3, widths=[5])
    @example(seed=2**32 - 1, start=2**64 - 2, rows=4, widths=[5])
    def test_every_row_is_its_streams_draws(self, seed, start, rows, widths):
        block = VariateBlock(seed, start, start + rows)
        for n in widths:  # growing, as a sweep's cells ask for longer prefixes
            block.prefix(n)
        n = max(widths)
        z = block.prefix(n)
        for j, i in enumerate(range(start, start + rows)):
            gen = RngStream(seed, i).generator
            seeded = gen.bit_generator.state["state"]
            assert block._generators[j] == (seeded["state"], seeded["inc"]), i
            assert np.array_equal(z[j], gen.standard_normal(n)), i
