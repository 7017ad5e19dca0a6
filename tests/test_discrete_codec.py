"""Codec tests: encoding, decoding, noise, and the space JSON format."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shsade_pids.discrete_codec import (
    Axis,
    DiscreteSpace,
    Genotype,
    decode,
    decode_indices,
    encode,
    genotype_to_dict,
    perturb,
)


def grid_space(num_axes=5, values=(0, 1, 2, 3)):
    return DiscreteSpace(tuple(Axis(f"a{i}", values) for i in range(num_axes)))


from space_strategies import index_rows, spaces


def random_space(rng):
    num_axes = int(rng.integers(1, 7))
    axes = []
    for i in range(num_axes):
        n = int(rng.integers(1, 9))
        values = tuple(int(v) for v in rng.choice(1000, size=n, replace=False))
        axes.append(Axis(f"axis{i}", values))
    return DiscreteSpace(tuple(axes))


class TestSpaceValidation:
    def test_axis_rejects_empty_values(self):
        with pytest.raises(ValueError):
            Axis("a", ())

    def test_axis_rejects_unhashable_values(self):
        with pytest.raises(ValueError, match="axis 'k' has an unhashable value"):
            Axis("k", ([1, 2], [3, 4]))

    def test_axis_rejects_duplicates(self):
        with pytest.raises(ValueError):
            Axis("a", (1, 2, 1))
        with pytest.raises(ValueError, match="duplicate"):
            Axis("a", (1, 1.0))
        with pytest.raises(ValueError, match="duplicate"):
            Axis("a", (True, 0, True))

    def test_a_bool_is_not_a_number(self):
        # Python has 0 == False and 1 == True; as axis values they differ
        axis = Axis("k", (0, False, 1, True))
        assert [axis.index_of(v) for v in (0, False, 1, True, 1.0, 0.0)] == [0, 1, 2, 3, 2, 0]
        space = DiscreteSpace((Axis("k", (False, "x", 0.5)),))
        assert space.indices_of(Genotype((False,))).tolist() == [0]
        with pytest.raises(ValueError, match="not admissible"):
            space.indices_of(Genotype((0.0,)))
        with pytest.raises(ValueError, match="not admissible"):
            space.indices_of(Genotype(([0],)))

    def test_space_rejects_duplicate_names(self):
        with pytest.raises(ValueError):
            DiscreteSpace((Axis("a", (1,)), Axis("a", (2,))))

    def test_space_rejects_no_axes(self):
        with pytest.raises(ValueError):
            DiscreteSpace(())

    def test_size(self):
        assert grid_space(5, (0, 1, 2, 3)).size == 1024


class TestEncode:
    def test_three_value_axis(self):
        space = DiscreteSpace((Axis("w", (16, 32, 64)),))
        assert encode(Genotype((16,)), space)[0] == 0.0
        assert encode(Genotype((32,)), space)[0] == 0.5
        assert encode(Genotype((64,)), space)[0] == 1.0

    def test_single_value_axis_maps_to_center(self):
        space = DiscreteSpace((Axis("w", (7,)),))
        assert encode(Genotype((7,)), space)[0] == 0.5

    def test_five_value_axis_index_three(self):
        space = DiscreteSpace((Axis("w", (10, 20, 30, 40, 50)),))
        assert encode(Genotype((40,)), space)[0] == 0.75

    def test_rejects_non_member(self):
        space = DiscreteSpace((Axis("w", (16, 32, 64)),))
        with pytest.raises(ValueError):
            encode(Genotype((17,)), space)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            encode(Genotype((0, 1)), grid_space(5))


class TestDecode:
    def test_rounding(self):
        space = DiscreteSpace((Axis("w", ("lo", "mid", "hi")),))
        assert decode(np.array([0.74]), space).choices == ("mid",)

    def test_half_rounds_to_higher_index(self):
        space = DiscreteSpace((Axis("w", ("lo", "mid", "hi")),))
        assert decode(np.array([0.25]), space).choices == ("mid",)

    def test_clamps_overflow(self):
        space = DiscreteSpace((Axis("w", ("lo", "mid", "hi")),))
        assert decode(np.array([1.3]), space).choices == ("hi",)
        assert decode(np.array([-0.2]), space).choices == ("lo",)

    def test_single_value_axis(self):
        space = DiscreteSpace((Axis("w", (7,)),))
        assert decode(np.array([0.93]), space).choices == (7,)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            decode(np.zeros(3), grid_space(5))

    def test_total_on_random_inputs(self):
        rng = np.random.default_rng(0)
        space = grid_space(4)
        for _ in range(500):
            g = decode(rng.uniform(-2, 3, size=4), space)
            space.indices_of(g)  # membership-valid by construction


def loop_decode_indices(u, space):
    """The original one-axis-at-a-time decode, kept as the reference."""
    clamped = np.clip(np.asarray(u, dtype=float), 0.0, 1.0)
    indices = []
    for i, axis in enumerate(space.axes):
        indices.append(0 if axis.size == 1 else int(np.floor(clamped[i] * (axis.size - 1) + 0.5)))
    return indices


class TestDecodeIndices:
    @settings(max_examples=80, deadline=None)
    @given(space=spaces(), rows=st.integers(1, 30), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_loop_and_the_scalar_decode(self, space, rows, seed):
        rng = np.random.default_rng(seed)
        us = rng.uniform(-0.5, 1.5, size=(rows, space.num_axes))
        # exact codepoints and half-way points between them, where rounding matters
        tops = np.array(space.sizes) - 1
        us[::2] = rng.integers(0, 2 * tops + 1, size=us[::2].shape) / np.maximum(2 * tops, 1)
        batch = decode_indices(us, space)
        assert batch.shape == (rows, space.num_axes)
        for u, row in zip(us, batch):
            assert row.tolist() == loop_decode_indices(u, space)
            assert decode(u, space) == space.genotype_from_indices(row)

    @settings(max_examples=40, deadline=None)
    @given(space=spaces(), rows=st.integers(0, 20), seed=st.integers(0, 2**32 - 1))
    def test_choices_from_indices_matches_genotypes(self, space, rows, seed):
        indices = index_rows(space, rows, seed)
        expected = [space.genotype_from_indices(row).choices for row in indices]
        assert space.choices_from_indices(indices) == expected

    def test_tuple_values_stay_whole(self):
        space = DiscreteSpace((Axis("kernel", ((1, 1), (3, 3))), Axis("w", (8,))))
        assert space.choices_from_indices(np.array([[1, 0], [0, 0]])) == [((3, 3), 8), ((1, 1), 8)]

    def test_rejects_bad_shapes_and_nan(self):
        space = grid_space(3)
        with pytest.raises(ValueError):
            decode_indices(np.zeros(3), space)
        with pytest.raises(ValueError):
            decode_indices(np.zeros((2, 4)), space)
        with pytest.raises(ValueError):
            decode_indices(np.array([[0.1, np.nan, 0.2]]), space)
        with pytest.raises(ValueError):
            decode(np.array([0.1, np.nan, 0.2]), space)


class TestPerturb:
    def test_zero_sigma_is_identity(self):
        u = np.array([0.1, 0.9])
        out = perturb(u, 0.0, np.random.default_rng(0))
        assert np.array_equal(out, u)

    def test_clamped_to_unit_interval(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            out = perturb(np.ones(4), 0.5, rng)
            assert np.all(out <= 1.0) and np.all(out >= 0.0)

    def test_noise_scale(self):
        rng = np.random.default_rng(2)
        samples = np.array([perturb(np.full(1, 0.5), 0.1, rng)[0] for _ in range(100_000)])
        assert 0.095 <= samples.std() <= 0.105

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            perturb(np.zeros(1), -0.1, np.random.default_rng(0))

    @pytest.mark.parametrize("sigma", [0.0, 0.05, 0.15])
    def test_draws_one_standard_normal_block(self, sigma):
        # nas_evolve's initial encodings go through perturb, so the noise
        # draw, even at sigma 0, is part of the search's random stream
        u = np.linspace(-0.2, 1.2, 12).reshape(3, 4)
        rng, ref = np.random.default_rng(5), np.random.default_rng(5)
        out = perturb(u, sigma, rng)
        expected = np.minimum(np.maximum(u + sigma * ref.standard_normal(u.shape), 0.0), 1.0)
        assert out.tobytes() == expected.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state


class TestRoundTrip:
    def test_exhaustive_on_grid(self):
        space = grid_space(5)
        for g in space.iter_genotypes():
            assert decode(encode(g, space), space) == g

    def test_random_spaces(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            space = random_space(rng)
            for _ in range(200):
                g = space.random_genotype(rng)
                assert decode(encode(g, space), space) == g

    def test_encode_is_strictly_increasing_along_each_axis(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            space = random_space(rng)
            for i, axis in enumerate(space.axes):
                coords = [
                    encode(space.genotype_from_indices([0] * i + [j] + [0] * (space.num_axes - i - 1)), space)[i]
                    for j in range(axis.size)
                ]
                assert all(a < b for a, b in zip(coords, coords[1:]))

    def test_decode_picks_nearest_codepoint(self):
        rng = np.random.default_rng(5)
        space = grid_space(3, (10, 20, 30, 40))
        codepoints = np.array([0.0, 1 / 3, 2 / 3, 1.0])
        for _ in range(2000):
            u = rng.uniform(-0.5, 1.5, size=3)
            idx = space.indices_of(decode(u, space))
            clamped = np.clip(u, 0.0, 1.0)
            for d in range(3):
                dist = np.abs(codepoints - clamped[d])
                best = dist.min()
                assert dist[idx[d]] <= best + 1e-12
                # ties must resolve to the higher index
                winners = np.flatnonzero(np.isclose(dist, best, atol=1e-12))
                assert idx[d] == winners.max() or not np.isclose(dist[idx[d]], best, atol=1e-12)


class TestJson:
    def test_space_round_trip(self):
        space = DiscreteSpace((Axis("width", (16, 32)), Axis("mode", ("a", "b", "c"))))
        doc = space.to_json_dict()
        assert doc == {
            "axes": [
                {"name": "width", "values": [16, 32]},
                {"name": "mode", "values": ["a", "b", "c"]},
            ]
        }
        assert DiscreteSpace.from_json_dict(json.loads(json.dumps(doc))) == space

    def test_from_json_rejects_malformed(self):
        with pytest.raises(ValueError):
            DiscreteSpace.from_json_dict({"no_axes": []})
        with pytest.raises(ValueError):
            DiscreteSpace.from_json_dict({"axes": [{"name": "a"}]})
        # axes and values must be arrays: a string or an object must not
        # become an axis of its characters or keys
        for axes in (5, [{"name": "k", "values": 5}], [{"name": "k", "values": "abc"}],
                     [{"name": "k", "values": {"x": 1}}]):
            with pytest.raises(ValueError, match="list"):
                DiscreteSpace.from_json_dict({"axes": axes})
        # a name must be a JSON string, not turned into one
        for name in (None, 7, {"a": 1}):
            with pytest.raises(ValueError, match="must be a string"):
                DiscreteSpace.from_json_dict({"axes": [{"name": name, "values": [0, 1]}]})

    def test_genotype_dict_round_trip(self):
        space = DiscreteSpace((Axis("width", (16, 32)), Axis("mode", ("a", "b"))))
        g = Genotype((32, "a"))
        doc = genotype_to_dict(g, space)
        assert doc == {"width": 32, "mode": "a"}
