"""Tests for repro.utils.rng."""

import numpy as np

from repro.utils.rng import RandomState, as_random_state, hash_string


class TestRandomState:
    def test_same_seed_gives_same_stream(self):
        first = RandomState(42).normal(size=10)
        second = RandomState(42).normal(size=10)
        np.testing.assert_allclose(first, second)

    def test_different_seeds_give_different_streams(self):
        first = RandomState(1).normal(size=10)
        second = RandomState(2).normal(size=10)
        assert not np.allclose(first, second)

    def test_seed_property(self):
        assert RandomState(7).seed == 7

    def test_wrapping_existing_state_shares_generator(self):
        base = RandomState(3)
        wrapped = RandomState(base)
        assert wrapped.generator is base.generator

    def test_wrapping_numpy_generator(self):
        generator = np.random.default_rng(5)
        state = RandomState(generator)
        assert state.generator is generator
        assert state.seed is None

    def test_uniform_bounds(self):
        values = RandomState(0).uniform(2.0, 3.0, size=100)
        assert np.all(values >= 2.0)
        assert np.all(values <= 3.0)

    def test_integers_range(self):
        values = RandomState(0).integers(0, 5, size=200)
        assert set(np.unique(values)) <= {0, 1, 2, 3, 4}

    def test_choice_without_replacement_unique(self):
        values = RandomState(0).choice(np.arange(10), size=10, replace=False)
        assert len(set(values.tolist())) == 10

    def test_permutation_preserves_elements(self):
        values = RandomState(0).permutation(np.arange(6))
        assert sorted(values.tolist()) == list(range(6))

    def test_spawn_children_are_independent(self):
        children = RandomState(9).spawn(2)
        first = children[0].normal(size=5)
        second = children[1].normal(size=5)
        assert not np.allclose(first, second)

    def test_spawn_is_reproducible_per_seed(self):
        first = [child.normal(size=3) for child in RandomState(9).spawn(3)]
        second = [child.normal(size=3) for child in RandomState(9).spawn(3)]
        np.testing.assert_array_equal(first, second)

    def test_derive_is_deterministic_per_tag(self):
        first = RandomState(11).derive("model").normal(size=4)
        second = RandomState(11).derive("model").normal(size=4)
        np.testing.assert_allclose(first, second)

    def test_derive_differs_across_tags(self):
        root = RandomState(11)
        first = root.derive("model").normal(size=4)
        second = root.derive("attack").normal(size=4)
        assert not np.allclose(first, second)

    def test_derive_without_seed_falls_back_to_spawn(self):
        root = RandomState(np.random.default_rng(0))
        child = root.derive("anything")
        assert isinstance(child, RandomState)


class TestPickleBoundary:
    """The RNG aliasing bug at process boundaries, and its fix.

    ``RandomState(existing)`` shares one generator in-process by design:
    two configs built from one state interleave draws from a single stream.
    Pickling silently breaks that contract — each separately pickled copy
    rehydrates a private generator frozen at the shared stream's state, so
    the copies *re-draw the same values* instead of interleaving.  Any
    state crossing into a shard worker must therefore stop sharing
    explicitly via :meth:`RandomState.fork` or :meth:`RandomState.derive`
    with a stable per-worker tag (``repro.serving.shard`` applies the rule
    at detector registration).
    """

    def test_shared_state_interleaves_in_process(self):
        base = RandomState(5)
        alias = RandomState(base)
        first = float(base.random())
        second = float(alias.random())
        assert first != second  # one stream, interleaved draws

    def test_separate_pickles_diverge_from_shared_stream(self):
        import pickle

        base = RandomState(5)
        alias = RandomState(base)
        # Ship the two configs to workers *separately* — the aliasing bug.
        base_copy = pickle.loads(pickle.dumps(base))
        alias_copy = pickle.loads(pickle.dumps(alias))
        assert base_copy.generator is not alias_copy.generator
        first = float(base_copy.random())
        second = float(alias_copy.random())
        # The copies silently re-draw the SAME value instead of interleaving:
        assert first == second
        # ... which diverges from the in-process interleaved replay.
        in_process = [float(base.random()), float(alias.random())]
        assert in_process[1] != second

    def test_joint_pickle_preserves_sharing(self):
        import pickle

        base = RandomState(5)
        alias = RandomState(base)
        base_copy, alias_copy = pickle.loads(pickle.dumps((base, alias)))
        assert base_copy.generator is alias_copy.generator  # pickle memo
        assert float(base_copy.random()) != float(alias_copy.random())

    def test_fork_stops_sharing(self):
        base = RandomState(5)
        child = base.fork()
        assert child.generator is not base.generator
        assert not np.allclose(base.normal(size=4), child.normal(size=4))

    def test_fork_is_reproducible(self):
        first = RandomState(5).fork().normal(size=6)
        second = RandomState(5).fork().normal(size=6)
        np.testing.assert_array_equal(first, second)

    def test_successive_forks_differ(self):
        base = RandomState(5)
        assert not np.allclose(
            base.fork().normal(size=6), base.fork().normal(size=6)
        )

    def test_fork_does_not_advance_the_parent(self):
        reference = RandomState(5).normal(size=6)
        base = RandomState(5)
        base.fork()
        np.testing.assert_array_equal(base.normal(size=6), reference)

    def test_derive_at_boundary_restores_sharded_equals_sequential(self):
        """The fix: derive per-worker streams, then shipping them is exact.

        A sequential replay derives one child stream per shard tag and draws
        in order; the sharded replay pickles each derived child to its
        worker and draws there.  With derive-at-boundary the two replays are
        bitwise identical — the property the campaign/serving parity gates
        rely on.
        """
        import pickle

        root = RandomState(42)
        sequential = [
            root.derive(f"shard:{index}").normal(size=8) for index in range(3)
        ]
        shipped = [
            pickle.loads(pickle.dumps(root.derive(f"shard:{index}"))).normal(size=8)
            for index in range(3)
        ]
        for left, right in zip(sequential, shipped):
            np.testing.assert_array_equal(left, right)
        # and the per-worker streams are genuinely distinct:
        assert not np.allclose(sequential[0], sequential[1])


class TestHelpers:
    def test_hash_string_is_stable(self):
        assert hash_string("abc") == hash_string("abc")

    def test_hash_string_differs(self):
        assert hash_string("abc") != hash_string("abd")

    def test_as_random_state_passthrough(self):
        state = RandomState(1)
        assert as_random_state(state) is state

    def test_as_random_state_from_int(self):
        assert isinstance(as_random_state(4), RandomState)
