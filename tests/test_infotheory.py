import re

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
)
from capdetect.infotheory import BA_TOL_BITS, _TALL_ROWS, _ba_map, _h, _row_reduce, check_interval
from conftest import (
    qutrit_vshape_transitions,
    random_transition,
    reference_ba_batch,
    reference_binary_capacity,
    reference_check_interval,
    simplex_grid_search_capacity,
    sole_reacher_matrices,
    weakly_symmetric_capacity,
)


def bsc(eps):
    return np.array([[1 - eps, eps], [eps, 1 - eps]])


def test_shannon_entropy_anchors():
    assert shannon_entropy([1.0, 0.0]) == 0.0
    assert shannon_entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-15)
    assert shannon_entropy([0.15, 0.85]) == pytest.approx(0.6098403047164004, abs=1e-12)


def test_shannon_entropy_rejects_bad_vectors():
    with pytest.raises(ValueError, match=r"^probabilities must sum to 1, got 1\.1"):
        shannon_entropy([0.5, 0.6])
    with pytest.raises(ValueError, match=r"^probabilities must be >= 0, got -0\.2$"):
        shannon_entropy([1.2, -0.2])


def test_prob_vector_check_fails_nan():
    with pytest.raises(ValueError, match=r"^probabilities must be >= 0, got nan$"):
        shannon_entropy([np.nan, 1.0])
    with pytest.raises(ValueError, match=r"^probabilities must be >= 0, got nan$"):
        mutual_information([np.nan, 1.0], np.eye(2))
    with pytest.raises(ValueError, match=r"^probabilities must sum to 1, got inf$"):
        shannon_entropy([np.inf, 0.0])


def test_prob_vector_check_names_shape():
    for bad, shape in (([], r"\(0,\)"), ([[0.5, 0.5]], r"\(1, 2\)"), (1.0, r"\(\)")):
        with pytest.raises(ValueError, match=r"^probability vector must be one-dimensional and "
                                             rf"non-empty, got shape {shape}$"):
            shannon_entropy(bad)


def test_shannon_entropy_of_point_mass_is_positive_zero():
    for p in ([1.0], [0.0, 1.0, 0.0], [1.0, 0.0]):
        h = shannon_entropy(p)
        assert h == 0.0 and np.copysign(1.0, h) == 1.0


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
    with pytest.raises(ValueError, match=r"^transition must be non-empty, got shape \(0, 0\)$"):
        blahut_arimoto(np.zeros((0, 0)))
    with pytest.raises(ValueError):
        blahut_arimoto(bsc(0.1), tol_bits=0.0)
    with pytest.raises(ValueError, match=r"^transition matrix must be two-dimensional, got shape \(2,\)$"):
        blahut_arimoto([0.5, 0.5])


def test_ba_reports_no_capacity_below_zero():
    # a channel whose columns are equal carries nothing, yet log2(sum_n p_n c_n)
    # rounded to -1.6e-16 bits on the uniform 6 x 6 matrix and -3.2e-16 on the 7 x 7
    for n in (6, 7):
        r = blahut_arimoto(np.full((n, n), 1.0 / n))
        assert (r.capacity_bits, r.gap_bits, r.iterations, r.converged) == (0.0, 0.0, 1, True)
        assert not np.signbit(r.capacity_bits)
    # and below 0 on 500 of these 2,000 random matrices with equal columns
    rng = np.random.default_rng(0)
    by_shape = {}
    for _ in range(2000):
        m, n = rng.integers(2, 9, size=2)
        by_shape.setdefault((m, n), []).append(np.repeat(rng.dirichlet(np.ones(m))[:, None], n, axis=1))
    for stack in by_shape.values():
        caps, _, iterations, gaps = blahut_arimoto_batch(np.stack(stack))
        assert (caps >= 0.0).all() and not np.signbit(caps).any()
        assert (gaps >= 0.0).all() and (iterations == 1).all()


def test_ba_batch_rejects_bad_inputs():
    stack = np.stack([bsc(0.1), np.array([[0.9, 0.5], [0.0, 0.5]])])
    with pytest.raises(ValueError, match=r"^column 1 of transition 2 must sum to 1, got 0\.9 \(deviation 1\.000e-01\)$"):
        blahut_arimoto_batch(stack)
    with pytest.raises(ValueError, match=r"^row 1 of transition 2: cell 1 must lie in \[0, 1\], got 1\.2$"):
        blahut_arimoto_batch(np.stack([bsc(0.1), np.array([[1.2, 0.5], [-0.2, 0.5]])]))
    with pytest.raises(ValueError, match=r"^row 1 of transition 2: cell 1 must lie in \[0, 1\], got nan$"):
        blahut_arimoto_batch(np.stack([bsc(0.1), np.array([[np.nan, 0.5], [0.5, 0.5]])]))
    with pytest.raises(ValueError, match="stack"):
        blahut_arimoto_batch(bsc(0.1))
    for empty in ((0, 2, 2), (2, 0, 2)):
        message = re.escape(f"transition must be non-empty, got shape {empty}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            blahut_arimoto_batch(np.zeros(empty))
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


def reference_corpus():
    """Seeded (stack, tol_bits, max_iter) cases that together reach every
    branch of the BA round and of the SQUAREM step: outputs that never
    occur (the masked log), SQUAREM backtracking and its fallback to p2
    (Dirichlet(0.05) columns and boundary optima), batches whose matrices
    finish on different rounds, max_iter stops at odd and even counts, and
    fixed points where v = 0 (the masked step length). The last cases are
    stacks of 127 to 1,001 count-quantized matrices with 2 to 9 inputs,
    whose exact zeros reach the same branches on rounds that reduce column
    by column, and rounds that do not once few matrices are left open."""
    rng = np.random.default_rng(2008)
    cases = []
    for _ in range(30):
        g, n_out, n_in = (int(x) for x in rng.integers([1, 2, 2], [6, 6, 6]))
        conc = rng.choice([0.05, 0.2, 1.0, 5.0])
        stack = rng.dirichlet(np.full(n_out, conc), size=(g, n_in)).transpose(0, 2, 1)
        if rng.random() < 0.5:
            stack = np.insert(stack, int(rng.integers(n_out + 1)), 0.0, axis=1)
        cases.append((stack, 1e-9, 3000))
    for _ in range(10):
        e0, e1 = rng.uniform(0.0, 0.45, 2)
        a, b = np.array([1.0 - e0, e0]), np.array([e1, 1.0 - e1])
        cols = [a, b] + [lam * a + (1.0 - lam) * b for lam in rng.uniform(0.05, 0.95, 3)]
        cases.append((np.stack(cols, axis=1)[None], 1e-12, 100_000))
    stack = rng.dirichlet(np.ones(4), size=(4, 4)).transpose(0, 2, 1)
    cases += [(stack, 1e-15, max_iter) for max_iter in range(1, 9)]
    # a near-mixture of two inputs with a little mass d on an output of its
    # own: its optimal weight can fall below the candidates' face threshold,
    # and then a candidate's bracket meets the +inf rule on that column
    mixed = rng.dirichlet(np.full(4, 0.05), size=(4, 3)).transpose(0, 2, 1)
    d, lam = rng.uniform(0.02, 0.3, (4, 1)), rng.uniform(0.0, 1.0, (4, 1))
    own = np.append((1.0 - d) * (lam * mixed[:, :, 0] + (1.0 - lam) * mixed[:, :, 1]), d, axis=1)
    mixed = np.concatenate([np.pad(mixed, ((0, 0), (0, 1), (0, 0))), own[:, :, None]], axis=2)
    cases.append((mixed, 1e-9, 3000))
    cases.append((np.stack([np.eye(3), np.eye(3)[:, [1, 2, 0]]]), 1e-300, 6))
    cases.append((bsc(0.1)[None], 1e-300, 6))
    heights = (_TALL_ROWS - 1, _TALL_ROWS, _TALL_ROWS + 1, 1001, 300, 1000, 129, 1001)
    for n_in, g in zip(range(2, 10), heights):
        n_out, shots = int(rng.integers(2, 8)), int(rng.choice([5, 50, 500, 5000]))
        columns = rng.dirichlet(np.full(n_out, 0.3), size=n_in)
        stack = np.stack([rng.multinomial(shots, col, size=g) for col in columns], axis=-1) / shots
        if rng.random() < 0.5:
            stack = np.insert(stack, int(rng.integers(n_out + 1)), 0.0, axis=1)
        cases.append((stack, 1e-9, 3000))
    return cases


def test_ba_equals_reference_recursion_bit_for_bit():
    stops, staggered, taken, tall = set(), False, [], False
    for stack, tol, max_iter in reference_corpus():
        tall |= len(stack) >= _TALL_ROWS and stack.shape[2] < 8
        ref = reference_ba_batch(stack, tol, max_iter, taken)
        got = blahut_arimoto_batch(stack, tol, max_iter)
        for r, x in zip(ref, got):  # capacities, priors, iterations, gaps
            assert x.dtype == r.dtype and np.array_equal(x, r)
        one = blahut_arimoto(stack[0], tol, max_iter)
        assert one.capacity_bits == ref[0][0] and one.gap_bits == ref[3][0]
        assert one.iterations == ref[2][0] and np.array_equal(one.optimal_prior, ref[1][0])
        stops.update(ref[2][ref[3] > tol].tolist())
        staggered |= len(set(ref[2].tolist())) > 1
    assert {1, 2, 7, 8} <= stops  # max_iter stops at odd and even counts
    assert staggered
    assert taken  # some face-Newton candidate raised a lower bound
    assert tall  # some rounds reduce column by column


def test_ba_certifies_every_sole_reacher_matrix():
    # an input that alone reaches an output joins every face-Newton face, so
    # its tiny optimal weight no longer leaves the matrix in SQUAREM's tail;
    # without the rule, matrix 3289 (5 x 4) ran to 100,000 evaluations
    # unconverged and four more took over 1,000. The slowest now takes
    # 1,063 evaluations (numpy 2.4); the bound leaves room for other numpy
    matrices = sole_reacher_matrices()
    iterations = np.zeros(len(matrices), dtype=int)
    for n in range(3, 7):
        index = [i for i, t in enumerate(matrices) if t.shape[1] == n]
        _, _, iterations[index], gaps = blahut_arimoto_batch(np.stack([matrices[i] for i in index]))
        assert (gaps <= BA_TOL_BITS).all()
    assert iterations.max() <= 1_500 and iterations[3289] < 100


def test_row_reduce_equals_numpy_bit_for_bit():
    # index-order sums from +0.0, exact maxima and any, signed zeros, infs
    # and NaN included, on both sides of the height and input limits
    rng = np.random.default_rng(19)
    for case in range(400):
        g, n = int(rng.choice([1, _TALL_ROWS - 1, _TALL_ROWS, 1001])), int(rng.integers(1, 10))
        a = rng.standard_normal((g, n)) * 10.0 ** rng.integers(-8, 8, (g, n))
        a[rng.random((g, n)) < 0.3] = (0.0, -0.0, np.inf, -np.inf, np.nan)[case % 5]
        for ufunc, x in ((np.add, a), (np.maximum, a), (np.logical_or, a < 0.0)):
            got, want = _row_reduce(ufunc, x), ufunc.reduce(x, axis=1)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_ba_output_that_never_occurs():
    # an all-zero row is an output no input reaches; it changes nothing
    # but the rounding, so each bracket holds the other solve's capacity
    rng = np.random.default_rng(9)
    for _ in range(40):
        n_out, n_in = (int(x) for x in rng.integers(3, 6, 2))
        t = random_transition(rng, n_out, n_in)
        padded = np.vstack([t, np.zeros(n_in)])
        a = blahut_arimoto(t, tol_bits=1e-9)
        b = blahut_arimoto(padded, tol_bits=1e-9)
        assert a.converged and b.converged
        for x, y in ((a, b), (b, a)):
            assert x.capacity_bits - 1e-15 <= y.capacity_bits <= x.capacity_bits + x.gap_bits + 1e-15
        assert np.max(np.abs(a.optimal_prior - b.optimal_prior)) <= 1e-9


def test_ba_bracket_counts_unreached_outputs_as_infinite_divergence():
    # input 2 is the only one that reaches output 2; at a prior with an
    # exact zero there, q_2 = 0 and D_2 = +inf, so the bracket's upper end
    # is +inf. Leaving the q = 0 term out would give D_2 = (1-d) log2(1-d)
    # < 1 and an upper end of 1 bit, below the capacity.
    d = 0.05
    t = np.array([[1.0, 0.0, 0.5 - d / 2], [0.0, 1.0, 0.5 - d / 2], [0.0, 0.0, d]])
    kl_const = (t * np.log2(t, out=np.zeros_like(t), where=t > 0.0)).sum(axis=0)
    mapped, lower, upper = _ba_map(t[None], kl_const[None], np.array([[0.5, 0.5, 0.0]]))
    assert upper.tolist() == [np.inf]
    assert lower.tolist() == [1.0] and mapped.tolist() == [[0.5, 0.5, 0.0]]
    res = blahut_arimoto(t, tol_bits=1e-12)
    assert res.converged and res.capacity_bits > 1.0 + 1e-8
    # an output that no input reaches stays out of every D
    padded = np.vstack([t, np.zeros(3)])
    _, _, upper = _ba_map(padded[None], kl_const[None], np.array([[0.25, 0.25, 0.5]]))
    assert np.isfinite(upper).all()


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


def test_binary_capacity_cut_near_degenerate_z_channel():
    # the Z channel eps0 = 0, C = log2(1 + (1 - e1) e1^(e1/(1 - e1))), at
    # spans 1 - e1 on both sides of the 1e-12 cut: inside it the reported 0
    # is short of C by at most 1e-12/(e ln 2) = 5.3e-13 bits
    e1 = 1.0 - np.geomspace(1e-13, 1e-9, 81)
    span = 1.0 - e1
    closed = np.log1p(span * np.exp(e1 / span * np.log(e1))) / np.log(2.0)
    cap = binary_capacity(np.zeros_like(e1), e1).capacity_bits
    assert np.all(cap <= closed + 1e-15)
    assert np.all(cap >= closed - 5.4e-13)
    assert np.all((cap == 0.0) == (span < 1e-12))


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


@st.composite
def sparse_transitions(draw):
    """A Dirichlet(0.05) matrix with at most 4 inputs and 4 outputs, whose
    optimal prior often leaves some inputs out; sometimes with an extra
    all-zero output row."""
    n_out, n_in = draw(st.integers(2, 4)), draw(st.integers(2, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    t = rng.dirichlet(np.full(n_out, 0.05), size=n_in).T
    if draw(st.booleans()):
        t = np.insert(t, draw(st.integers(0, n_out)), 0.0, axis=0)
    return t


@settings(max_examples=40, deadline=None, derandomize=True)
@given(sparse_transitions())
def test_ba_on_sparse_matrices_against_grid_search(t):
    res = blahut_arimoto(t, tol_bits=1e-9)
    assert res.converged
    assert abs(res.capacity_bits - simplex_grid_search_capacity(t)) < 1e-5


def test_ba_against_grid_search_oracle():
    rng = np.random.default_rng(5)
    for _ in range(10):
        t = random_transition(rng, 3, 3)
        oracle = simplex_grid_search_capacity(t)
        assert abs(blahut_arimoto(t, tol_bits=1e-9).capacity_bits - oracle) < 1e-5


@st.composite
def weakly_symmetric_matrices(draw):
    """A circulant matrix T[m, n] = c[(m - n) mod k] on a random column c,
    with its rows and columns optionally permuted; c may be peaked (a
    Dirichlet draw with a small concentration) and may have zero entries."""
    k = draw(st.integers(2, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.dirichlet(np.full(k, draw(st.sampled_from([0.05, 1.0, 20.0]))))
    zeros = draw(st.integers(0, k - 1))
    if zeros:  # never the largest entry, so the column keeps its mass
        c[rng.choice(np.argsort(c)[:-1], zeros, replace=False)] = 0.0
        c /= c.sum()
    t = c[(np.arange(k)[:, None] - np.arange(k)) % k]
    if draw(st.booleans()):
        t = t[rng.permutation(k)]
    if draw(st.booleans()):
        t = t[:, rng.permutation(k)]
    return t


@settings(max_examples=300, deadline=None, derandomize=True)
@given(weakly_symmetric_matrices())
def test_ba_certifies_weakly_symmetric_matrices_at_once(t):
    # from the uniform prior every c_n of a weakly symmetric matrix is equal,
    # so the first evaluation's bracket already closes
    oracle = weakly_symmetric_capacity(t)
    assert oracle is not None
    res = blahut_arimoto(t, tol_bits=1e-9)
    assert res.iterations <= 2 and res.converged
    assert abs(res.capacity_bits - oracle) <= 1e-14


def test_weakly_symmetric_q2():
    _, q2, gt = qutrit_vshape_transitions(0.5, 0.5)
    expected = np.log2(3) - shannon_entropy([gt, gt, 1 - 2 * gt])
    assert weakly_symmetric_capacity(q2) == pytest.approx(expected, abs=1e-12)
    res = blahut_arimoto(q2, tol_bits=1e-9)
    assert res.iterations <= 2 and res.converged
    assert res.capacity_bits == pytest.approx(expected, abs=1e-12)


def test_weakly_symmetric_bsc():
    assert weakly_symmetric_capacity(bsc(0.2)) == pytest.approx(0.2780719051126377, abs=1e-12)
    res = blahut_arimoto(bsc(0.2), tol_bits=1e-9)
    assert res.iterations <= 2 and res.converged
    assert res.capacity_bits == pytest.approx(0.2780719051126377, abs=1e-12)


def test_weakly_symmetric_absent_for_q1():
    q1, _, _ = qutrit_vshape_transitions(0.3, 0.3)
    assert weakly_symmetric_capacity(q1) is None


def test_solver_settings_are_checked_in_one_place():
    from capdetect import DetectionConfig, is_cptp, pauli_channel

    stack = np.stack([bsc(0.1)])
    for tol in (np.nan, np.inf, 0.0):
        with pytest.raises(ValueError, match=r"tol_bits must be finite and > 0, got"):
            blahut_arimoto_batch(stack, tol_bits=tol)
        with pytest.raises(ValueError, match=r"tol_bits must be finite and > 0, got"):
            DetectionConfig("pauli", ba_tolerance_bits=tol)
        with pytest.raises(ValueError, match=r"tol must be finite and > 0, got"):
            is_cptp(pauli_channel(0.1, 0.1, 0.1), tol=tol)
    # a numpy integer is shown as the int it holds, alike on every numpy
    for max_iter, shown in ((0, 0), (-3, -3), (2.5, 2.5), (True, True), (None, None), (np.int64(0), 0)):
        with pytest.raises(ValueError, match=rf"^max_iter must be an integer >= 1, got {shown}$"):
            blahut_arimoto_batch(stack, max_iter=max_iter)
        with pytest.raises(ValueError, match=rf"^max_iter must be an integer >= 1, got {shown}$"):
            DetectionConfig("pauli", max_iterations=max_iter)
    assert blahut_arimoto_batch(stack, max_iter=np.int64(1))[2].tolist() == [1]
    assert DetectionConfig("pauli", max_iterations=np.int64(5)).max_iterations == 5


def test_binary_entropy_skips_its_mask_with_the_same_bits():
    # inside (0, 1) the mask is skipped; an exact 0 or 1 takes the masked
    # path, whose other entries must keep their bits and which gives +0.0
    rng = np.random.default_rng(18)
    inner = np.concatenate([rng.uniform(0.0, 1.0, 2000), [5e-324, 1e-300, 2**-53, 0.5, 1.0 - 2**-53]])
    for x in (inner, inner.reshape(5, -1)):
        fast = _h(x)
        for edge in ([0.0, 1.0], [0.0, 0.0, 1.0], [-0.0, 1.0]):
            masked = _h(np.concatenate([x.ravel(), edge]))
            assert np.array_equal(masked[:x.size].view(np.uint64), fast.ravel().view(np.uint64))
            assert masked[x.size:].view(np.uint64).tolist() == [0] * len(edge)  # +0.0, not -0.0
    assert binary_entropy(0.0) == 0.0 and np.signbit(binary_entropy(np.array([0.0, 1.0]))).sum() == 0
    # elementwise, as the masked formula computes each entry
    for v in inner[:50]:
        assert _h(np.array([v, 0.0]))[0] == -v * np.log2(v) - (1.0 - v) * np.log2(1.0 - v)


def _same_bits(got, ref) -> bool:
    got, ref = np.asarray(got, dtype=float), np.asarray(ref, dtype=float)
    return got.shape == ref.shape and np.array_equal(got.view(np.int64), ref.view(np.int64))


def test_binary_capacity_matches_the_reference_bit_for_bit():
    # every float, signed zeros included, must be what the reference's
    # fully masked form gives, on flips, swaps, spans around the 1e-12 cut
    # and count-quantized stacks
    rng = np.random.default_rng(28)
    a, b = rng.uniform(0.0, 0.5, (2, 300))
    cases = [(a, b), (np.minimum(a, b), np.maximum(a, b)),  # swaps, then none
             (1.0 - a, 1.0 - b), (1.0 - np.minimum(a, b), 1.0 - np.maximum(a, b)),  # flips
             (a, 1.0 - a - rng.uniform(0.0, 2e-12, 300)),  # spans around the 1e-12 cut
             (np.array([0.0, 1.0, 0.0, 1.0, -0.0, 0.3]), np.array([0.0, 1.0, 1.0, 0.0, 0.2, -0.0])),
             (a[:3], b[:3])]
    for shots in (500, 10**4):  # count-quantized replicate stacks of 3,003 entries
        e0, e1, e2 = rng.binomial(shots, [[0.02], [0.3], [0.5]], (3, 3003)) / shots
        cases += [(e0, e1), (e0, e2), (e2, e2), (1.0 - e0, 1.0 - e1)]
    for x, y in cases:
        for e0, e1 in ((x, y), (y, x), (x, y[:1]), (x[:1], y)):
            cap, p0 = binary_capacity(e0, e1)
            ref_cap, ref_p0 = reference_binary_capacity(e0, e1)
            assert _same_bits(cap, ref_cap) and _same_bits(p0, ref_p0)
    for e0, e1 in ((0.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.3, 0.7 - 1e-13), (0.9, 0.4), (0.4, 0.1), (-0.0, 0.5)):
        got, ref = binary_capacity(e0, e1), reference_binary_capacity(e0, e1)
        assert [type(v) for v in got] == [float, float]
        assert _same_bits(got, ref)


def test_interval_check_matches_the_reference():
    # each input, empty, NaN, infinite and within or past the slack, must
    # give the reference check's array or its error text
    nan, inf = np.nan, np.inf
    inputs = [[], np.zeros((0, 3)), 0.5, -0.0, nan, inf, -inf, 1.0 + 5e-10, 1.0 + 2e-9, -5e-10, -2e-9,
              [0.2, 0.7, 1.0], [0.2, nan, 0.3], [nan, nan], [0.2, inf], [-inf, 0.5], [[0.1, 1.0 + 5e-10]],
              [[0.1, 1.0 + 2e-9], [-2e-9, -5e-10]], [1.0 + 2e-9, nan, -1.0], np.arange(12.0).reshape(3, 4)]
    for values in inputs:
        for lo, hi, slack in ((0.0, 1.0, 0.0), (0.0, 1.0, 1e-9), (0.0, inf, 0.0), (-inf, inf, 0.0)):
            try:
                ref = reference_check_interval("x", values, lo, hi, slack)
            except ValueError as err:
                with pytest.raises(ValueError) as caught:
                    check_interval("x", values, lo, hi, slack)
                assert str(caught.value) == str(err)
            else:
                got = check_interval("x", values, lo, hi, slack)
                assert got.dtype == ref.dtype and _same_bits(got, ref)
