import numpy as np

from thermoclass import channel, qmat


def test_trace_distances_match_eigenvalue_form():
    rng = np.random.default_rng(2)
    pairs = [(qmat.random_density_matrix(rng), qmat.random_density_matrix(rng)) for _ in range(50)]
    pairs.append((qmat.ground_state(), qmat.ground_state()))
    dy = np.array([channel.to_coords(a) - channel.to_coords(b) for a, b in pairs])
    expected = [qmat.trace_distance(a, b) for a, b in pairs]
    np.testing.assert_allclose(channel.trace_distances(dy), expected, rtol=0.0, atol=1e-15)
    # unnormalized differences too, as the early-stop test sees them
    np.testing.assert_allclose(
        channel.trace_distances(0.3 * dy[:5, None]), 0.3 * np.array(expected[:5])[:, None], atol=1e-15
    )
