"""WeightedIndex is bit-identical to ``Generator.choice(n, p=p)``.

Same index on every draw and the same generator state afterwards, so
the call sites that switched to it (request mixes, path selection,
mixtures, path-tree choice) keep every simulated output unchanged.
"""

import numpy as np
import pytest

from repro.distributions import Deterministic, Mixture, WeightedIndex
from repro.engine import Simulator
from repro.errors import DistributionError, TopologyError
from repro.service import ExecutionPath, PathSelector, Request
from repro.topology import Deployment, Dispatcher, PathNode, PathTree
from repro.workload import RequestMix

DRAWS = 2000
SEEDS = range(50)


def _weights(kind):
    if kind == "single":
        return np.array([1.0])
    if kind == "uniform":
        return np.full(7, 1.0 / 7)
    if kind == "skewed":
        p = np.array([0.9, 0.05, 0.0, 0.03, 0.0199, 0.0001])
        return p / p.sum()
    assert kind == "dirichlet"
    return np.random.default_rng(1234).dirichlet(np.ones(9))


@pytest.mark.parametrize("kind", ["single", "uniform", "skewed", "dirichlet"])
def test_draws_match_generator_choice(kind):
    p = _weights(kind)
    index = WeightedIndex(p)
    for seed in SEEDS:
        ours = np.random.default_rng(seed)
        theirs = np.random.default_rng(seed)
        got = [index.draw(ours) for _ in range(DRAWS)]
        want = [int(theirs.choice(len(p), p=p)) for _ in range(DRAWS)]
        assert got == want, seed
        assert ours.bit_generator.state == theirs.bit_generator.state


def test_draws_at_cdf_boundaries_match():
    """A uniform landing exactly on a CDF step goes right, as numpy's
    ``searchsorted(side="right")`` does."""
    p = np.array([0.25, 0.0, 0.25, 0.5])
    index = WeightedIndex(p)

    class Fixed:
        def __init__(self, u):
            self.u = u

        def random(self):
            return self.u

    cdf = p.cumsum() / p.cumsum()[-1]
    for u in (0.0, 0.25, 0.5, 0.75, np.nextafter(1.0, 0.0)):
        assert index.draw(Fixed(u)) == int(cdf.searchsorted(u, side="right"))


@pytest.mark.parametrize("weights", [[], [0.0, 0.0], [0.5, -0.1, 0.6],
                                     [float("nan"), 1.0], [[0.5, 0.5]]])
def test_bad_weights_rejected(weights):
    with pytest.raises(DistributionError):
        WeightedIndex(weights)


def test_request_mix_sample_matches_choice():
    mix = RequestMix.from_weights({"a": 3.0, "b": 1.0, "c": 0.5})
    ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
    for _ in range(500):
        idx = int(theirs.choice(len(mix.types), p=mix._probs))
        assert mix.sample(ours)[0] == mix.types[idx].name
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_path_selector_matches_choice():
    paths = [ExecutionPath(i, f"p{i}", [0]) for i in range(3)]
    probs = {2: 0.5, 0: 0.2, 1: 0.3}
    selector = PathSelector(paths, probs)
    ids = sorted(probs)
    p = np.array([probs[i] for i in ids])
    ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
    for _ in range(500):
        want = ids[int(theirs.choice(len(ids), p=p))]
        assert selector.select(ours).path_id == want
    assert ours.bit_generator.state == theirs.bit_generator.state


def test_mixture_matches_choice():
    parts = [Deterministic(1.0), Deterministic(2.0), Deterministic(3.0)]
    weights = [0.1, 0.6, 0.3]
    mixture = Mixture(parts, weights)
    ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
    for _ in range(500):
        want = parts[int(theirs.choice(3, p=weights))].sample(theirs)
        assert mixture.sample(ours) == want
    assert ours.bit_generator.state == theirs.bit_generator.state


class TestPickTree:
    @pytest.fixture
    def dispatcher(self):
        return Dispatcher(Simulator(seed=0), Deployment())

    @staticmethod
    def _tree(name):
        return PathTree(name).chain(PathNode(name, "svc"))

    def test_bad_sum_raises_and_add_tree_rebuilds(self, dispatcher):
        dispatcher.add_tree(self._tree("x"), probability=0.5)
        dispatcher.add_tree(self._tree("y"), probability=0.2)
        with pytest.raises(TopologyError):
            dispatcher._pick_tree(Request(0.0))
        with pytest.raises(TopologyError):
            dispatcher._pick_tree(Request(0.0))
        dispatcher.add_tree(self._tree("z"), probability=0.3)
        picked = {dispatcher._pick_tree(Request(0.0)).name for _ in range(200)}
        assert picked == {"x", "y", "z"}
        # A cached table must not outlive the next registration.
        dispatcher.add_tree(self._tree("w"), probability=0.1)
        with pytest.raises(TopologyError):
            dispatcher._pick_tree(Request(0.0))

    def test_negative_weight_raises_topology_error(self, dispatcher):
        dispatcher.add_tree(self._tree("x"), probability=1.5)
        dispatcher.add_tree(self._tree("y"), probability=-0.5)
        with pytest.raises(TopologyError):
            dispatcher._pick_tree(Request(0.0))

    def test_picks_match_choice(self, dispatcher):
        weights = [0.25, 0.5, 0.125, 0.125]
        for i, w in enumerate(weights):
            dispatcher.add_tree(self._tree(f"t{i}"), probability=w)
        theirs = np.random.default_rng(0)
        theirs.bit_generator.state = dispatcher._rng.bit_generator.state
        for _ in range(500):
            want = f"t{int(theirs.choice(len(weights), p=weights))}"
            assert dispatcher._pick_tree(Request(0.0)).name == want
        assert dispatcher._rng.bit_generator.state == theirs.bit_generator.state
