import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from capdetect import (
    binary_capacity,
    binary_entropy,
    blahut_arimoto,
    blahut_arimoto_batch,
    mutual_information,
    shannon_entropy,
    weakly_symmetric_capacity,
    qutrit_vshape_transitions,
)
from conftest import random_transition, simplex_grid_search_capacity


def bsc(eps):
    return np.array([[1 - eps, eps], [eps, 1 - eps]])


def test_shannon_entropy_anchors():
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert shannon_entropy([0.15, 0.85]) == pytest.approx(0.6098403047164004, abs=1e-12)


def test_shannon_entropy_rejects_bad_vectors():
    with pytest.raises(ValueError):
        shannon_entropy([0.5, 0.6])
    with pytest.raises(ValueError):
        shannon_entropy([1.2, -0.2])


def test_binary_entropy_symmetry_and_range():
    xs = np.linspace(0, 1, 101)
    h = binary_entropy(xs)
    assert np.allclose(h, h[::-1], atol=1e-12)
    assert h.max() == pytest.approx(1.0)
    assert h[0] == h[-1] == 0.0


def test_mutual_information_identity_channel():
    rng = np.random.default_rng(0)
    for n in (2, 3, 5):
        p = rng.dirichlet(np.ones(n))
        assert mutual_information(p, np.eye(n)) == pytest.approx(shannon_entropy(p), abs=1e-12)


def test_mutual_information_bsc_uniform():
    assert mutual_information([0.5, 0.5], bsc(0.2)) == pytest.approx(
        0.2780719051126377, abs=1e-12
    )


def test_mutual_information_z_channel_at_optimum():
    t = np.array([[1.0, 0.5], [0.0, 0.5]])
    assert mutual_information([0.6, 0.4], t) == pytest.approx(np.log2(5 / 4), abs=1e-12)


def test_mutual_information_dimension_mismatch():
    with pytest.raises(ValueError):
        mutual_information([0.5, 0.5], np.eye(3))


def test_ba_identity_3x3():
    r = blahut_arimoto(np.eye(3), tol_bits=1e-9)
    assert r.converged
    assert r.capacity_bits == pytest.approx(np.log2(3), abs=1e-9)


def test_ba_bsc():
    r = blahut_arimoto(bsc(0.1), tol_bits=1e-9)
    assert r.capacity_bits == pytest.approx(0.5310044064107188, abs=1e-6)
    assert np.allclose(r.optimal_prior, 0.5, atol=1e-9)


def test_ba_z_channel():
    r = blahut_arimoto(np.array([[1.0, 0.5], [0.0, 0.5]]), tol_bits=1e-10)
    assert r.capacity_bits == pytest.approx(0.32192809488736235, abs=1e-9)
    assert r.optimal_prior[0] == pytest.approx(0.6, abs=1e-6)


def test_ba_lower_bounds_monotone():
    rng = np.random.default_rng(1)
    for _ in range(20):
        t = random_transition(rng, 3, 3)
        runs = [blahut_arimoto(t, tol_bits=1e-9, max_iter=k) for k in range(1, 41)]
        lb = np.array([r.capacity_bits for r in runs])
        assert np.all(np.diff(lb) >= -1e-12)
        ub = np.array([r.capacity_bits + r.gap_bits for r in runs])
        assert np.all(np.diff(ub) <= 1e-12)


def test_ba_unconverged_flagged():
    r = blahut_arimoto(np.array([[1.0, 0.5], [0.0, 0.5]]), tol_bits=1e-12, max_iter=3)
    assert not r.converged
    assert r.iterations == 3
    assert r.gap_bits > 1e-12


def test_ba_rejects_bad_inputs():
    with pytest.raises(ValueError):
        blahut_arimoto(np.array([[0.9, 0.5], [0.0, 0.5]]))  # column sum != 1
    with pytest.raises(ValueError):
        blahut_arimoto(bsc(0.1), tol_bits=0.0)


def test_ba_batch_rejects_bad_inputs():
    stack = np.stack([bsc(0.1), np.array([[0.9, 0.5], [0.0, 0.5]])])
    with pytest.raises(ValueError, match="columns must sum to 1"):
        blahut_arimoto_batch(stack)
    with pytest.raises(ValueError, match="lie in"):
        blahut_arimoto_batch(np.stack([bsc(0.1), np.array([[1.2, 0.5], [-0.2, 0.5]])]))
    with pytest.raises(ValueError, match="lie in"):
        blahut_arimoto_batch(np.stack([bsc(0.1), np.array([[np.nan, 0.5], [0.5, 0.5]])]))
    with pytest.raises(ValueError, match="stack"):
        blahut_arimoto_batch(bsc(0.1))
    for tol in (0.0, -1e-9):
        with pytest.raises(ValueError, match="tol_bits"):
            blahut_arimoto_batch(np.stack([bsc(0.1)]), tol_bits=tol)


def test_ba_uniform_prior_lower_bound_property():
    rng = np.random.default_rng(2)
    for _ in range(30):
        n_out, n_in = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        t = random_transition(rng, n_out, n_in)
        uni = np.full(n_in, 1.0 / n_in)
        cap = blahut_arimoto(t, tol_bits=1e-9).capacity_bits
        assert mutual_information(uni, t) <= cap + 1e-9


def test_ba_batch_matches_scalar():
    rng = np.random.default_rng(3)
    ts = np.stack([random_transition(rng, 3, 3) for _ in range(40)])
    caps, priors, iters, gaps = blahut_arimoto_batch(ts, tol_bits=1e-9)
    assert gaps.max() <= 1e-9
    for i in range(40):
        r = blahut_arimoto(ts[i], tol_bits=1e-9)
        assert abs(caps[i] - r.capacity_bits) < 1e-12
        assert np.allclose(priors[i], r.optimal_prior, atol=1e-10)


def test_binary_capacity_symmetric_recovers_bsc():
    for eps in np.linspace(0, 0.49, 25):
        cap, p0 = binary_capacity(eps, eps)
        assert cap == pytest.approx(1.0 - binary_entropy(eps), abs=1e-12)
        assert p0 == pytest.approx(0.5, abs=1e-12)


def test_binary_capacity_z_channel():
    cap, p0 = binary_capacity(0.0, 0.5)
    assert cap == pytest.approx(0.32192809488736235, abs=1e-12)
    assert p0 == pytest.approx(0.6, abs=1e-12)


def test_binary_capacity_degenerate_line():
    assert binary_capacity(0.4, 0.6) == (0.0, 0.5)
    assert binary_capacity(0.5, 0.5) == (0.0, 0.5)


def test_binary_capacity_relabeling_invariance():
    rng = np.random.default_rng(4)
    for _ in range(200):
        e0, e1 = rng.uniform(0, 1, 2)
        c = binary_capacity(e0, e1).capacity_bits
        assert binary_capacity(1 - e0, 1 - e1).capacity_bits == pytest.approx(c, abs=1e-12)
        assert binary_capacity(e1, e0).capacity_bits == pytest.approx(c, abs=1e-12)


def test_binary_capacity_input_swap_prior():
    cap, p0 = binary_capacity(0.5, 0.0)  # Z-channel with inputs swapped
    assert cap == pytest.approx(0.32192809488736235, abs=1e-12)
    assert p0 == pytest.approx(0.4, abs=1e-12)


def test_binary_capacity_rejects_out_of_range():
    with pytest.raises(ValueError):
        binary_capacity(-0.1, 0.5)
    with pytest.raises(ValueError):
        binary_capacity(0.1, 1.5)


def test_range_errors_name_first_bad_entry():
    with pytest.raises(ValueError, match=r"^eps1 = 1\.5 outside \[0, 1\]$"):
        binary_capacity(0.1, 1.5)
    with pytest.raises(ValueError, match=r"^eps1 = 1\.5 outside \[0, 1\] \(2 of 3 entries\)$"):
        binary_capacity([0.1, 0.1, 0.1], [0.2, 1.5, np.nan])
    with pytest.raises(ValueError, match=r"^binary entropy argument = -0\.5 outside \[0, 1\] \(1 of 3"):
        binary_entropy([0.2, -0.5, 1.0])
    with pytest.raises(ValueError, match=r"^binary entropy argument = nan outside"):
        binary_entropy(np.nan)


def test_binary_capacity_against_ba_small_grid():
    for e0 in np.linspace(0, 0.5, 8):
        for e1 in np.linspace(0, 0.5, 8):
            t = np.array([[1 - e0, e1], [e0, 1 - e1]])
            ba = blahut_arimoto(t, tol_bits=1e-9).capacity_bits
            assert abs(ba - binary_capacity(e0, e1).capacity_bits) < 1e-8


def test_binary_capacity_within_ba_bracket():
    # the closed form must lie inside BA's certified bracket [lower, upper],
    # including close to the degenerate line eps0 + eps1 = 1 where the
    # closed-form capacity expression cancels
    spans = 10.0 ** -np.arange(2, 12)
    near = [(e0, 1.0 - e0 - s) for e0 in (0.1, 0.3, 0.45) for s in spans]
    rng = np.random.default_rng(6)
    pairs = np.array(near + [tuple(e) for e in rng.uniform(0, 1, (200, 2))])
    ts = np.stack([np.array([[1 - a, b], [a, 1 - b]]) for a, b in pairs])
    lower, _, _, gaps = blahut_arimoto_batch(ts, tol_bits=1e-9, max_iter=20_000)
    scalar = [binary_capacity(a, b) for a, b in pairs]
    cap = np.array([c.capacity_bits for c in scalar])
    assert np.all(cap >= lower - 1e-15)
    assert np.all(cap <= lower + gaps + 1e-15)
    # one array call gives the scalar results bit for bit
    vec = binary_capacity(pairs[:, 0], pairs[:, 1])
    assert np.array_equal(vec.capacity_bits, cap)
    assert np.array_equal(vec.optimal_p0, [c.optimal_p0 for c in scalar])


def mixture_channels(rng, count):
    """Two-output channels whose inputs are a, b and mixtures of them, in a
    random order. A mixture input never helps, so C is the binary capacity
    of a and b, and the optimal prior lies on a face of the simplex."""
    out = []
    while len(out) < count:
        e0, e1 = rng.uniform(0.0, 1.0, 2)
        if abs(1.0 - e0 - e1) < 0.1:
            continue
        a, b = np.array([1.0 - e0, e0]), np.array([e1, 1.0 - e1])
        lams = rng.uniform(0.05, 0.95, int(rng.integers(1, 5)))
        cols = [a, b] + [lam * a + (1.0 - lam) * b for lam in lams]
        out.append((e0, e1, np.stack(cols, axis=1)[:, rng.permutation(len(cols))]))
    return out


def test_ba_boundary_optimum_against_binary_closed_form():
    for e0, e1, t in mixture_channels(np.random.default_rng(11), 40):
        r = blahut_arimoto(t, tol_bits=1e-9)
        cap = binary_capacity(e0, e1).capacity_bits
        assert r.capacity_bits <= cap + 1e-15
        assert cap <= r.capacity_bits + r.gap_bits + 1e-15
        assert r.gap_bits <= 1e-9
        assert mutual_information(r.optimal_prior, t) >= r.capacity_bits - 1e-12
        assert r.iterations <= 200


@st.composite
def transition_stacks(draw):
    n_out = draw(st.integers(3, 6))
    n_in = draw(st.integers(3, 6))
    g = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    conc = draw(st.sampled_from([0.2, 1.0, 5.0]))
    stack = rng.dirichlet(np.full(n_out, conc), size=(g, n_in)).transpose(0, 2, 1)
    if draw(st.booleans()):  # an input that is a mixture of two others
        lam = rng.uniform(0.0, 1.0, (g, 1))
        stack[:, :, -1] = lam * stack[:, :, 0] + (1.0 - lam) * stack[:, :, 1]
    return stack


@settings(max_examples=60, deadline=None, derandomize=True)
@given(transition_stacks())
def test_ba_batch_properties(stack):
    caps, priors, iters, gaps = blahut_arimoto_batch(stack, tol_bits=1e-9)
    g, n_out, n_in = stack.shape
    assert np.all(gaps <= 1e-9)
    assert np.all(caps <= np.log2(min(n_in, n_out)) + 1e-12)
    for i in range(g):
        one = blahut_arimoto_batch(stack[i:i + 1], tol_bits=1e-9)
        assert one[0][0] == caps[i] and one[2][0] == iters[i] and one[3][0] == gaps[i]
        assert np.array_equal(one[1][0], priors[i])
        assert mutual_information(priors[i], stack[i]) >= caps[i] - 1e-12


def test_ba_against_grid_search_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = random_transition(rng, 3, 3)
        oracle = simplex_grid_search_capacity(t)
        assert abs(blahut_arimoto(t, tol_bits=1e-9).capacity_bits - oracle) < 1e-5


def test_weakly_symmetric_q2():
    _, q2, gt = qutrit_vshape_transitions(0.5, 0.5)
    ws = weakly_symmetric_capacity(q2)
    assert ws is not None
    expected = np.log2(3) - shannon_entropy([gt, gt, 1 - 2 * gt])
    assert ws.capacity_bits == pytest.approx(expected, abs=1e-12)


def test_weakly_symmetric_bsc():
    ws = weakly_symmetric_capacity(bsc(0.2))
    assert ws is not None
    assert ws.capacity_bits == pytest.approx(0.2780719051126377, abs=1e-12)


def test_weakly_symmetric_absent_for_q1():
    q1, _, _ = qutrit_vshape_transitions(0.3, 0.3)
    assert weakly_symmetric_capacity(q1) is None
