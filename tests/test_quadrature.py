"""The scrambled-Halton sampler behind every verify sample set."""

import numpy as np
import pytest
from scipy.stats import qmc  # the oracle

from chemosim import quadrature
from chemosim.quadrature import halton_points, halton_run

SEEDS = (0, 1, 2, 3, 42, 977, 12345, 2**31)
COUNTS = (1, 2, 3, 50, 300, 600, 1000, 2000)


# d = 132 is the two-argument holder column count at 32 agents in 2D
@pytest.mark.parametrize("dim", list(range(1, 11)) + [18, 40, 132])
def test_halton_points_equal_scipy_bit_for_bit(dim):
    lo, hi = -1.5, 2.0
    for n in COUNTS:
        for seed in SEEDS:
            want = lo + qmc.Halton(d=dim, scramble=True, seed=seed).random(n) * (hi - lo)
            got = halton_points(n, [(lo, hi)] * dim, seed=seed)
            assert np.array_equal(got, want), (dim, n, seed)


def test_halton_points_pinned_rows():
    # literal values, so that the sample sets stay put whatever scipy does
    assert halton_points(3, [(0.0, 1.0)] * 3, seed=0).tolist() == [
        [0.0991217798843752, 0.05391376185363979, 0.30077622909743845],
        [0.5991217798843752, 0.7205804285203065, 0.7007762290974384],
        [0.3491217798843752, 0.38724709518697303, 0.1007762290974384],
    ]
    assert halton_points(3, [(0.0, 1.0)] * 3, seed=977).tolist() == [
        [0.39999167124031876, 0.9916761830713376, 0.8611987773246653],
        [0.8999916712403188, 0.6583428497380044, 0.2611987773246649],
        [0.14999167124031876, 0.3250095164046712, 0.06119877732466496],
    ]


def test_halton_points_scale_into_the_box():
    pts = halton_points(500, [(-2.0, 2.0), (0.5, 0.75), (3.0, 3.0)], seed=5)
    assert pts.shape == (500, 3)
    assert np.all((pts[:, 0] >= -2.0) & (pts[:, 0] < 2.0))
    assert np.all((pts[:, 1] >= 0.5) & (pts[:, 1] < 0.75))
    assert np.all(pts[:, 2] == 3.0)


@pytest.mark.parametrize("bounds", [[(1.0, 0.0)], [(0.0, 1.0), (0.2, -0.2)],
                                    [(0.0, float("nan"))]])
def test_halton_points_reject_inverted_bounds(bounds):
    with pytest.raises(ValueError, match="inverted"):
        halton_points(10, bounds, seed=0)


def test_halton_run_draws_equal_fresh_draws_bit_for_bit():
    # growing counts and axes, two seeds interleaved, empty and one-point draws
    draws = [(1, 50, 3), (977, 1, 1), (1, 300, 2), (977, 0, 2), (1, 300, 2), (1, 600, 1),
             (977, 300, 6), (1, 300, 6), (1, 0, 0), (977, 1, 8), (1, 1, 4), (977, 601, 2),
             (1, 2000, 7), (977, 5, 3)]

    def box(dim):
        return [(-1.0 - k, 2.0 + 0.5 * k) for k in range(dim)]

    fresh = [halton_points(n, box(d), seed) for seed, n, d in draws]
    with halton_run():
        shared = [halton_points(n, box(d), seed) for seed, n, d in draws]
        assert sorted(quadrature._HALTON_TABLES.get()) == [1, 977]
    assert quadrature._HALTON_TABLES.get() is None
    for (seed, n, d), a, b in zip(draws, shared, fresh):
        assert a.shape == b.shape == (n, d)
        assert a.tobytes() == b.tobytes(), (seed, n, d)


def test_halton_points_outside_a_run_keep_nothing(monkeypatch):
    seeds = []
    default_rng = np.random.default_rng

    def counted(seed=None):
        seeds.append(seed)
        return default_rng(seed)

    monkeypatch.setattr(np.random, "default_rng", counted)
    first = halton_points(10, [(0.0, 1.0)] * 2, seed=3)
    second = halton_points(10, [(0.0, 1.0)] * 2, seed=3)
    assert seeds == [3, 3]
    assert first.tobytes() == second.tobytes()
    with halton_run():
        halton_points(10, [(0.0, 1.0)] * 2, seed=3)
        halton_points(20, [(0.0, 1.0)] * 3, seed=3)
    assert seeds == [3, 3, 3]
