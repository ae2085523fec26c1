import json
import pathlib
import re
import threading
import warnings

import numpy as np
import pytest

from capdetect import (
    ChannelSpec,
    DetectionConfig,
    KrausChannel,
    MeasurementBasis,
    binary_entropy,
    computational_basis,
    conditional_probs,
    detect_capacity,
    detect_from_counts,
    detect_from_samples,
    detect_from_transitions,
    pauli_bases,
    pauli_channel,
    pauli_family_channel,
    sample_counts,
    sample_transition,
    vshape_qutrit_channel,
    weyl_operator,
)
from capdetect import detect, protocol_sim
from capdetect.protocol_sim import _percentile_interval, _stream
from conftest import (
    depolarizing_channel,
    entangled_joint_distribution,
    fourier_basis,
    haar_random_basis,
    king_capacity,
    qutrit_vshape_transitions,
    random_cptp_channel,
    reference_detect_from_counts,
    reference_eigenbasis,
    weakly_symmetric_capacity,
)


def test_sample_deterministic_column_is_exact():
    t = np.array([[1.0, 0.2], [0.0, 0.8]])
    counts, est = sample_transition(t, 500, seed=9)
    assert np.array_equal(counts[:, 0], [500, 0])
    assert est[0, 0] == 1.0
    assert np.array_equal(counts.sum(axis=0), [500, 500])


def test_sample_same_seed_identical():
    t = np.array([[0.8, 0.2], [0.2, 0.8]])
    counts1, est1 = sample_transition(t, 1000, seed=123)
    counts2, est2 = sample_transition(t, 1000, seed=123)
    assert np.array_equal(counts1, counts2)
    assert np.array_equal(est1, est2)
    counts3, _ = sample_transition(t, 1000, seed=124)
    assert not np.array_equal(counts1, counts3)


def test_sample_concentration_at_many_shots():
    t = np.array([[0.8, 0.2], [0.2, 0.8]])
    bad = 0
    for seed in range(20):
        _, est = sample_transition(t, 10**5, seed=seed)
        if np.max(np.abs(est - t)) >= 0.01:
            bad += 1
    assert bad == 0


def test_sample_rejects_zero_shots():
    # numpy's multinomial takes at most 2^63 - 1 draws, and a shot count is
    # an integer: 5.5 would draw 5 shots and divide by 5.5
    for shots in (0, -1, 2**63, 10**20, 5.5, 5.0, True):
        with pytest.raises(ValueError, match=rf"^shots per input must be an integer in \[1, 2\^63\), got {shots}$"):
            sample_transition(np.eye(2), shots, seed=1)
    assert (sample_transition(np.eye(2), 2**63 - 1, seed=1)[0] == (2**63 - 1) * np.eye(2)).all()


def test_sample_rejects_basis_index_outside_key_field():
    # 2^24 would share its Philox key with basis 0's bootstrap stream
    for index in (2**24, -1, 1.0):
        with pytest.raises(ValueError, match=rf"^basis_index must be an integer in \[0, 2\^24\), got {index}$"):
            sample_transition(np.eye(2), 10, seed=1, basis_index=index)
    sample_transition(np.eye(2), 10, seed=1, basis_index=2**24 - 1)
    with pytest.raises(ValueError, match=r"^input_index must be an integer in \[0, 2\^24\), got 16777216$"):
        _stream(1, 0, 2**24)


def test_every_seed_door_takes_only_an_integer_seed():
    # a float or bool seed drew an integer seed's stream: 1.5 and True drew
    # seed 1's, and the estimate reported the seed it was given
    ch = pauli_channel(0.1, 0.2, 0.05)
    cfg = DetectionConfig("pauli")
    counts = sample_counts(ch, pauli_bases(), 50, 1)
    doors = (lambda seed: sample_transition(np.eye(2), 10, seed),
             lambda seed: sample_counts(ch, pauli_bases(), 50, seed),
             lambda seed: detect_from_counts(counts, 50, ["x", "y", "z"], cfg, seed, 100),
             lambda seed: detect_from_samples(ch, cfg, 50, seed, 100))
    for door in doors:
        for seed in (1.5, True, -1, 2**64):
            with pytest.raises(ValueError, match=rf"^seed must be an integer in \[0, 2\^64\), got {seed}$"):
                door(seed)
        door(np.uint64(2**64 - 1))


def test_transitions_are_checked_where_they_are_made():
    # 1.2 I does not preserve the trace: its column [1.44, 0] was clipped to
    # [1, 0], and both pipelines reported a noiseless bit
    grown = KrausChannel((1.2 * np.eye(2),))
    for make in (lambda: conditional_probs(grown, pauli_bases()),
                 lambda: detect_capacity(grown),
                 lambda: detect_from_samples(grown, DetectionConfig("pauli"), 100, 1, 100)):
        with pytest.raises(ValueError, match=r"^row 1 of transition 1: cell 1 must lie in \[0, 1\], got 1\.4\d*$"):
            make()
    with pytest.raises(ValueError, match=r"^column 1 of transition 1 must sum to 1, got 0\.25 "):
        detect_capacity(KrausChannel((0.5 * np.eye(2),)))


def test_entangled_joint_identity_channel():
    ch = KrausChannel((np.eye(2, dtype=complex),))
    p = entangled_joint_distribution(ch, computational_basis(2))
    assert np.allclose(p, np.eye(2) / 2, atol=1e-12)


def test_entangled_joint_pauli_z():
    ch = pauli_channel(0.15, 0.05, 0.1)
    p = entangled_joint_distribution(ch, computational_basis(2))
    assert np.allclose(p, np.array([[0.8, 0.2], [0.2, 0.8]]) / 2, atol=1e-12)


def test_entangled_joint_vshape_fourier():
    ch = vshape_qutrit_channel(0.5, 0.5)
    _, q2, _ = qutrit_vshape_transitions(0.5, 0.5)
    p = entangled_joint_distribution(ch, fourier_basis(3, "B2"))
    assert np.max(np.abs(p - q2 / 3)) < 1e-12


def test_entangled_joint_equals_scaled_conditionals():
    rng = np.random.default_rng(20)
    for _ in range(60):
        d = int(rng.choice([2, 3]))
        ch = random_cptp_channel(d, int(rng.integers(1, d * d + 1)), rng)
        basis = haar_random_basis(d, rng)
        p = entangled_joint_distribution(ch, basis)
        t = conditional_probs(ch, basis)
        assert np.max(np.abs(p - t / d)) < 1e-10
        assert p.sum() == pytest.approx(1.0, abs=1e-10)


def test_detect_from_samples_noiseless_is_one_bit():
    ch = KrausChannel((np.eye(2, dtype=complex),))
    est = detect_from_samples(ch, DetectionConfig("pauli"), 100, seed=5, resamples=100)
    assert est.point_estimate_bits == pytest.approx(1.0, abs=1e-12)
    assert est.ci_low_bits == pytest.approx(1.0, abs=1e-12)
    assert est.ci_high_bits == pytest.approx(1.0, abs=1e-12)


def test_detect_from_samples_deterministic():
    ch = pauli_channel(0.15, 0.05, 0.1)
    cfg = DetectionConfig("pauli")
    a = detect_from_samples(ch, cfg, 2000, seed=77, resamples=150)
    b = detect_from_samples(ch, cfg, 2000, seed=77, resamples=150)
    assert a == b  # bit-identical dataclass comparison


def test_detect_from_samples_converges():
    ch = pauli_channel(0.15, 0.05, 0.1)
    cfg = DetectionConfig("pauli")
    est = detect_from_samples(ch, cfg, 10**6, seed=11, resamples=100)
    assert est.point_estimate_bits == pytest.approx(0.3901596952835996, abs=5e-3)
    assert est.argmax_basis == "x"


def test_ci_width_shrinks_with_shots():
    ch = pauli_channel(0.15, 0.05, 0.1)
    cfg = DetectionConfig("pauli")
    small = detect_from_samples(ch, cfg, 100, seed=3, resamples=300)
    big = detect_from_samples(ch, cfg, 10**6, seed=3, resamples=300)
    assert (big.ci_high_bits - big.ci_low_bits) < (small.ci_high_bits - small.ci_low_bits)


def test_ci_contains_point_estimate():
    rng = np.random.default_rng(21)
    cfg = DetectionConfig("pauli")
    for seed in rng.integers(0, 2**32, 10):
        p = rng.dirichlet(np.ones(4))
        ch = pauli_channel(p[1], p[2], p[3])
        est = detect_from_samples(ch, cfg, 500, seed=int(seed), resamples=120)
        assert est.ci_low_bits <= est.point_estimate_bits <= est.ci_high_bits


def test_bootstrap_coverage_at_least_ninety_percent():
    # measured true coverage of the 95% percentile interval at these
    # settings is ~93%; the frozen stride seed set asserts the >=90% floor
    ch = pauli_channel(0.15, 0.05, 0.1)
    cfg = DetectionConfig("pauli")
    truth = 1 - binary_entropy(0.15)
    hits = 0
    for seed in range(0, 1000, 5):
        e = detect_from_samples(ch, cfg, 10**4, seed=seed, resamples=1000)
        hits += e.ci_low_bits <= truth <= e.ci_high_bits
    assert hits >= 180


def test_bootstrap_warns_when_replicates_unconverged():
    ch = vshape_qutrit_channel(0.3, 0.6)
    cfg = DetectionConfig("weyl", max_iterations=2)
    with pytest.warns(RuntimeWarning, match=r"bootstrap replicates: \d+ of 100 .* worst gap"):
        detect_from_samples(ch, cfg, 500, seed=4, resamples=100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        detect_from_samples(ch, DetectionConfig("weyl"), 500, seed=4, resamples=100)


def test_simulate_warns_when_the_point_estimate_is_unconverged():
    ch = vshape_qutrit_channel(0.3, 0.6)
    cfg = DetectionConfig("weyl", max_iterations=2)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        est = detect_from_samples(ch, cfg, 500, seed=4, resamples=100)
    assert len(caught) == 1 and caught[0].category is RuntimeWarning
    labels = ("weyl(0,1)", "weyl(1,0)", "weyl(1,1)", "weyl(1,2)")
    point = str(caught[0].message).splitlines()[0]
    assert re.fullmatch(r"point estimate: (.*) did not converge to 1e-09 bits; worst gap \S+ bits", point)
    assert point.split(": ", 1)[1].split(" did", 1)[0] == ", ".join(labels)
    assert est.ci_low_bits <= est.point_estimate_bits <= est.ci_high_bits


def test_weyl_simulation_samples_each_class_once():
    # the d + 1 = 4 distinct qutrit Weyl bases, built independently and
    # labelled by the first U_ls of each class
    ch = vshape_qutrit_channel(0.3, 0.6)
    classes = [MeasurementBasis(f"weyl({l},{s})", reference_eigenbasis(weyl_operator(3, l, s)))
               for l, s in ((0, 1), (1, 0), (1, 1), (1, 2))]
    for shots, seed in ((500, 4), (10**5, 9)):
        got = detect_from_samples(ch, DetectionConfig("weyl"), shots, seed, resamples=200)
        ref = detect_from_samples(ch, DetectionConfig(classes), shots, seed, resamples=200)
        assert got.argmax_basis == ref.argmax_basis
        for key in ("point_estimate_bits", "ci_low_bits", "ci_high_bits"):
            assert getattr(got, key) == pytest.approx(getattr(ref, key), abs=1e-12)


def test_resamples_floor():
    ch = pauli_channel(0.1, 0.1, 0.1)
    for resamples in (50, 99, 100.5, 150.0, True):
        with pytest.raises(ValueError, match=rf"^resamples must be an integer >= 100, got {resamples}$"):
            detect_from_samples(ch, DetectionConfig("pauli"), 100, seed=0, resamples=resamples)


# the point estimate and its argmax: each basis's plug-in estimate is solved
# with its replicates, and must give what the bound pipeline gives on the
# same sampled estimates, closed forms and exact ties included

def _plug_in_cases():
    rng = np.random.default_rng(15)
    for d, family in ((2, "pauli"), (3, "weyl"), (5, "weyl")):
        for _ in range(3):
            yield random_cptp_channel(d, int(rng.integers(1, d * d + 1)), rng), DetectionConfig(family), 300
    for d in (2, 3):
        ch = random_cptp_channel(d, 2, rng)
        yield ch, DetectionConfig([haar_random_basis(d, rng, f"b{k}") for k in range(3)]), 300
    for d in (3, 5):  # every estimate is exactly the identity
        yield KrausChannel((np.eye(d, dtype=complex),)), DetectionConfig("weyl"), 50
    uniform = pauli_family_channel(3, np.full((3, 3), 1 / 9))
    for shots in (1, 1, 1, 1, 2):  # one-shot columns are often a permutation matrix
        yield uniform, DetectionConfig("weyl"), shots


def test_point_estimate_equals_detection_on_the_sampled_estimates():
    weakly_symmetric = 0
    for k, (ch, cfg, shots) in enumerate(_plug_in_cases()):
        bases = cfg.resolve_bases(ch.dim)
        estimates = [sample_transition(conditional_probs(ch, b), shots, k, basis_index=i)[1]
                     for i, b in enumerate(bases)]
        ref = detect_from_transitions(estimates, [b.label for b in bases], cfg)
        est = detect_from_samples(ch, cfg, shots, k, resamples=100)
        assert est.point_estimate_bits == ref.c_det_bits
        assert est.argmax_basis == ref.argmax_basis
        weakly_symmetric += sum(t.shape != (2, 2) and weakly_symmetric_capacity(t) is not None
                                for t in estimates)
    assert weakly_symmetric >= 10


def test_simulate_converges_to_kings_capacity():
    # the d = 3 depolarizing channel's point estimate overshoots King's C by
    # +0.030, +0.0056 and +0.0018 bits at 1e3, 1e5 and 1e6 shots
    capacity = king_capacity(3, 0.3)
    errors = [abs(detect_from_samples(depolarizing_channel(3, 0.3), DetectionConfig("weyl"), shots, 1, 200)
                  .point_estimate_bits - capacity) for shots in (10**3, 10**5, 10**6)]
    assert errors[0] > errors[1] > errors[2] and errors[2] < 0.002


def test_simulate_keys_its_streams_by_seed_kind_basis_and_input(monkeypatch):
    # the draws' bits belong to numpy's sampler, but their keys are the
    # program's: every basis's point draw (kind 0) keys over the inputs,
    # from sample_counts, then every basis's bootstrap (kind 1), from
    # detect_from_counts
    keys = []
    stream = protocol_sim._stream

    def recording(seed, basis_index, input_index, kind=0):
        keys.append((seed, kind, basis_index, input_index))
        return stream(seed, basis_index, input_index, kind)

    monkeypatch.setattr(protocol_sim, "_stream", recording)
    seed = 2**64 - 3
    detect_from_samples(pauli_channel(0.1, 0.2, 0.05), DetectionConfig("pauli"), 500, seed, resamples=100)
    assert keys == [(seed, kind, b, n) for kind in (0, 1) for b in range(3) for n in range(2)]
    keys.clear()
    q = np.random.default_rng(8).dirichlet(np.ones(9)).reshape(3, 3)
    detect_from_samples(pauli_family_channel(3, q), DetectionConfig("weyl"), 500, 11, resamples=100)
    assert keys == [(11, kind, b, n) for kind in (0, 1) for b in range(4) for n in range(3)]


def record_solve_shapes(monkeypatch) -> list:
    """The shape of every stack protocol_sim passes to solve_stack."""
    shapes, solve_stack = [], protocol_sim.solve_stack

    def recording(stack, config):
        shapes.append(stack.shape)
        return solve_stack(stack, config)

    monkeypatch.setattr(protocol_sim, "solve_stack", recording)
    return shapes


def test_simulate_solves_each_basis_once_with_its_replicates(monkeypatch):
    # bases whose stacks fit the cell budget together share one call; a
    # 1,001-row qutrit stack (9,009 cells) is solved alone
    shapes = record_solve_shapes(monkeypatch)
    detect_from_samples(vshape_qutrit_channel(0.3, 0.6), DetectionConfig("weyl"), 500, seed=4, resamples=100)
    assert shapes == [(404, 3, 3)]
    shapes.clear()
    detect_from_samples(pauli_channel(0.1, 0.2, 0.05), DetectionConfig("pauli"), 500, seed=4, resamples=120)
    assert shapes == [(363, 2, 2)]
    shapes.clear()
    detect_from_samples(vshape_qutrit_channel(0.3, 0.6), DetectionConfig("weyl"), 500, seed=4, resamples=1000)
    assert shapes == [(1001, 3, 3)] * 4


def test_grouped_bootstrap_equals_the_per_basis_one(monkeypatch):
    # with cell budgets that make groups of one basis, of two and of all,
    # detect_from_counts gives what one solve per basis gives, warnings too
    rng = np.random.default_rng(19)
    shapes = record_solve_shapes(monkeypatch)
    cases = [(pauli_channel(0.1, 0.2, 0.05), DetectionConfig("pauli"), 500, 1000),
             (random_cptp_channel(2, 2, rng), DetectionConfig("pauli"), 10**5, 100),
             (vshape_qutrit_channel(0.3, 0.6), DetectionConfig("weyl"), 5000, 200),
             (random_cptp_channel(3, 2, rng), DetectionConfig("weyl", max_iterations=3), 500, 100),
             (random_cptp_channel(5, 3, rng), DetectionConfig("weyl"), 2000, 100),
             (random_cptp_channel(3, 1, rng), DetectionConfig([haar_random_basis(3, rng, f"custom{i}")
                                                                for i in range(3)]), 10**4, 300),
             (random_cptp_channel(4, 2, rng), DetectionConfig([haar_random_basis(4, rng, f"custom{i}")
                                                                for i in range(2)]), 800, 100)]
    for seed, (ch, cfg, shots, resamples) in enumerate(cases):
        bases = cfg.resolve_bases(ch.dim)
        counts, labels = sample_counts(ch, bases, shots, seed), [b.label for b in bases]
        with warnings.catch_warnings(record=True) as expected:
            warnings.simplefilter("always")
            ref = reference_detect_from_counts(counts, shots, labels, cfg, seed, resamples).as_dict()
        rows = resamples + 1
        for per_call in (1, 2, len(bases)):
            monkeypatch.setattr(protocol_sim, "_GROUP_CELLS", per_call * rows * ch.dim ** 2)
            shapes.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                assert detect_from_counts(counts, shots, labels, cfg, seed, resamples).as_dict() == ref
            assert [str(w.message) for w in caught] == [str(w.message) for w in expected]
            assert shapes == [(min(per_call, len(bases) - first) * rows, ch.dim, ch.dim)
                              for first in range(0, len(bases), per_call)]


def test_percentile_interval_equals_numpy_bit_for_bit():
    # the bootstrap interval's two order statistics, interpolated with
    # numpy's linear-method arithmetic; what np.percentile gives, every bit
    rng = np.random.default_rng(28)
    for n in (100, 101, 200, 999, 1000):
        with_nan = rng.random(n)
        with_nan[rng.integers(n)] = np.nan
        for values in (rng.random(n), rng.integers(0, 4, n) / 3.0, rng.integers(0, 25, n) * 0.07,
                       np.full(n, 0.37), np.zeros(n), np.full(n, -0.0), np.full(n, 1.0), with_nan,
                       np.sort(rng.random(n))[::-1], 10.0 ** rng.uniform(-300, 300, n)):
            got = _percentile_interval(values)
            assert [type(v) for v in got] == [float, float]
            ref = np.percentile(values, [2.5, 97.5])
            assert np.array(got).view(np.int64).tolist() == ref.view(np.int64).tolist(), (n, values[:5])
    # among equal order statistics the sort may order +0.0 and -0.0 otherwise
    # than numpy's partition does, so only the sign of a zero can differ;
    # replicate capacities are never -0.0 (binary_capacity clips to +0.0,
    # Blahut-Arimoto's bounds are logarithms)
    zeros = rng.choice([0.0, -0.0, 0.5], 1000)
    assert _percentile_interval(zeros) == tuple(np.percentile(zeros, [2.5, 97.5]))


def test_unconverged_warning_points_at_the_caller():
    ch, cfg = vshape_qutrit_channel(0.3, 0.6), DetectionConfig("weyl", max_iterations=2)
    bases = cfg.resolve_bases(3)
    counts = sample_counts(ch, bases, 500, 4)
    with pytest.warns(RuntimeWarning) as through_samples:
        detect_from_samples(ch, cfg, 500, seed=4, resamples=100)
    with pytest.warns(RuntimeWarning) as through_counts:
        detect_from_counts(counts, 500, [b.label for b in bases], cfg, 4, 100)
    for caught in (through_samples, through_counts):
        assert [w.filename for w in caught] == [__file__]


def test_a_nan_gap_is_not_converged(monkeypatch):
    # simulate and bound test convergence alike, as gap <= tol, so a NaN gap
    # in basis y's point estimate is reported, not counted as converged
    def nan_gap(solve_stack, row):
        def patched(stack, config):
            method, caps, priors, iterations, gaps = solve_stack(stack, config)
            gaps = gaps.copy()
            gaps[row] = np.nan
            return method, caps, priors, iterations, gaps
        return patched

    ch, cfg = pauli_channel(0.1, 0.2, 0.05), DetectionConfig("pauli")
    bases = cfg.resolve_bases(2)
    counts = sample_counts(ch, bases, 500, 4)
    # the three bases' point estimates and replicates share one call, 101 rows each
    monkeypatch.setattr(protocol_sim, "solve_stack", nan_gap(protocol_sim.solve_stack, 101))
    with pytest.warns(RuntimeWarning) as caught:
        detect_from_counts(counts, 500, [b.label for b in bases], cfg, 4, 100)
    assert [str(w.message) for w in caught] == [
        "point estimate: y did not converge to 1e-09 bits; worst gap nan bits"]
    monkeypatch.setattr(detect, "solve_stack", nan_gap(detect.solve_stack, 1))
    res = detect_capacity(ch, cfg)
    assert [r.converged for r in res.per_basis] == [True, False, True] and not res.converged


def test_rekeyed_stream_draws_what_a_fresh_generator_draws():
    # _stream re-keys one generator per thread; every cell must still draw
    # what its own Generator(Philox(key)) draws, whatever the last cell left
    # behind: a part-used buffer, a cached uint32, or the binomial sampler's
    # set-up for the same (shots, column) on the next key
    rng = np.random.default_rng(18)
    for case in range(300):
        seed = int(rng.integers(0, 2**64, dtype=np.uint64))
        kind, basis, first = int(rng.integers(0, 2)), int(rng.integers(0, 2**24)), int(rng.integers(0, 2**24 - 1))
        shots = (1, 10**6)[case] if case < 2 else int(10 ** rng.uniform(0.0, 6.0))
        column = rng.dirichlet(np.ones(2 + case % 5))
        size = (None, 200, 1000)[case % 3]
        if case % 4 == 0:
            _stream(1, 0, 0).random(3, dtype=np.float32)  # leaves a cached uint32
        for index in (first, first + 1):
            key = np.array([seed, (kind << 48) | (basis << 24) | index], dtype=np.uint64)
            fresh = np.random.Generator(np.random.Philox(key=key)).multinomial(shots, column, size)
            assert np.array_equal(_stream(seed, basis, index, kind).multinomial(shots, column, size), fresh)


def test_two_threads_each_get_the_serial_result(monkeypatch):
    # each thread re-keys its own generator, so two requests running at once
    # draw what they draw alone; the threads take their streams in lockstep,
    # so each re-keys before the other draws, the order a shared generator
    # would fail in
    pairs = [[(pauli_channel(0.15, 0.05, 0.1), DetectionConfig("pauli"), 2000, 5),
              (pauli_channel(0.02, 0.3, 0.1), DetectionConfig("pauli"), 500, 6)],
             [(vshape_qutrit_channel(0.3, 0.6), DetectionConfig("weyl"), 500, 9),
              (pauli_family_channel(3, np.full((3, 3), 1 / 9)), DetectionConfig("weyl"), 10**5, 9)]]
    serial = [[detect_from_samples(*case, resamples=100) for case in pair] for pair in pairs]
    barrier, stream = threading.Barrier(2, timeout=60), protocol_sim._stream

    def lockstep(*key):
        gen = stream(*key)
        barrier.wait()
        return gen

    monkeypatch.setattr(protocol_sim, "_stream", lockstep)
    for pair, expected in zip(pairs, serial):
        results = [None, None]

        def run(i):
            results[i] = detect_from_samples(*pair[i], resamples=100)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
        assert results == expected


def test_each_request_reconstructs_its_transitions_in_one_pass(monkeypatch):
    calls = []
    for module in (detect, protocol_sim):
        monkeypatch.setattr(module, "conditional_probs",
                            lambda ch, b, f=conditional_probs: calls.append(len(b)) or f(ch, b))
    ch = vshape_qutrit_channel(0.3, 0.6)
    detect_capacity(ch, DetectionConfig("weyl"))
    detect_from_samples(ch, DetectionConfig("weyl"), 500, seed=4, resamples=100)
    assert calls == [4, 4]


COUNT_TABLES = pathlib.Path(__file__).parent / "data" / "count_tables.json"


def test_detect_from_counts_pins_the_point_estimate_on_committed_tables():
    # no random draw enters the point estimate or its argmax, so these are
    # pinned bit for bit on count tables drawn once: 2x2 closed forms, 3x3
    # and 5x5 Blahut-Arimoto, and one-shot permutation tables that tie
    for case in json.loads(COUNT_TABLES.read_text()):
        counts = np.array(case["counts"])
        est = detect_from_counts(counts, case["shots"], case["labels"], DetectionConfig(case["bases"]),
                                 case["seed"], resamples=100)
        assert (est.point_estimate_bits, est.argmax_basis) == (case["point_estimate_bits"], case["argmax_basis"])
        assert est.ci_low_bits <= est.point_estimate_bits <= est.ci_high_bits


def test_detect_from_samples_is_detect_from_counts_on_sample_counts():
    spec = json.loads((pathlib.Path(__file__).parent / "data" / "kraus_d5_member24.json").read_text())
    for ch, cfg, shots, seed in ((pauli_channel(0.1, 0.2, 0.05), DetectionConfig("pauli"), 500, 2**64 - 3),
                                 (vshape_qutrit_channel(0.3, 0.6), DetectionConfig("weyl"), 10**5, 8),
                                 (ChannelSpec.from_dict(spec).build(), DetectionConfig("weyl"), 1000, 11)):
        bases = cfg.resolve_bases(ch.dim)
        counts = sample_counts(ch, bases, shots, seed)
        assert counts.shape == (len(bases), ch.dim, ch.dim) and counts.dtype.kind == "i"
        assert (counts.sum(axis=1) == shots).all()
        for i, b in enumerate(bases):
            assert np.array_equal(counts[i], sample_transition(conditional_probs(ch, b), shots, seed,
                                                               basis_index=i)[0])
        labels = [b.label for b in bases]
        assert detect_from_counts(counts, shots, labels, cfg, seed, 100) == detect_from_samples(
            ch, cfg, shots, seed, resamples=100)


def test_detect_from_counts_rejects_ragged_tables():
    # numpy refuses ragged lists with its own message; the error names the
    # rule of channels.check_numbers, which reads the counts, as it does for
    # lists nested past the recursion limit or into themselves, which the
    # cell walk would recurse into without end
    deep, loop = [1], []
    for _ in range(2000):
        deep = [deep]
    loop.append(loop)
    for ragged, labels, message in (([[[1, 0], [0]]], ["a"], "is not a rectangular array of numbers"),
                                    ([[[1, 0], [0, 1]], [[1, 0]]], ["a", "b"], "is not a rectangular array of numbers"),
                                    (deep, ["a"], "is nested too deeply"), (loop, ["a"], "is nested too deeply")):
        with pytest.raises(ValueError, match=rf"^counts {message}$"):
            detect_from_counts(ragged, 1, labels, DetectionConfig("pauli"), 1, 100)


def test_detect_from_counts_rejects_malformed_tables():
    counts = np.array([[[3, 1], [2, 4]], [[5, 0], [0, 5]]])
    cfg = DetectionConfig("pauli")
    detect_from_counts(counts, 5, ["a", "b"], cfg, 1, 100)
    # the shape is checked before the resamples, whose cell cap reads d
    for bad_counts, shots, labels in ((counts, 5, ["a"]), (counts, 6, ["a", "b"]), (counts[:, :1], 5, ["a", "b"]),
                                      (counts[0], 5, ["a", "b"]), (counts[:0], 5, [])):
        with pytest.raises(ValueError, match=rf"^need one square count table per label, columns summing "
                                             rf"to shots = {shots}$"):
            detect_from_counts(bad_counts, shots, labels, cfg, 1, 100)
    # a number, Python's or a 0-d array, is no table
    for number in (5, np.array(5)):
        with pytest.raises(ValueError, match=rf"^counts must be an array of numbers, got {re.escape(repr(number))}$"):
            detect_from_counts(number, 5, ["x"], cfg, 1, 100)
    # the column sums are exact at every shots < 2^63: at d = 5 and shots =
    # 2^62, a first column of five cells 2^62 summed to 2^62 in int64 and
    # failed inside numpy's multinomial; a valid table there still passes
    wrapped = np.zeros((1, 5, 5), dtype=np.int64)
    wrapped[0, :, 0] = wrapped[0, 0, 1:] = 2**62
    with pytest.raises(ValueError, match=r"^need one square count table per label, columns summing "
                                         r"to shots = 4611686018427387904$"):
        detect_from_counts(wrapped, 2**62, ["a"], DetectionConfig("weyl"), 1, 100)
    assert detect_from_counts([[[2**62, 2**61], [0, 2**61]]], 2**62, ["a"], cfg, 1, 100).point_estimate_bits >= 0.0
    # the cells are summed as given, not as float64 rounds them past 2^53:
    # a first column of 2^62 + 1 fails, and one of 2^62 - 1 and 1 passes
    for table in ([[[2**62 + 1, 2**62], [0, 0]]], np.array([[[2**62 + 1, 2**62], [0, 0]]])):
        with pytest.raises(ValueError, match=r"^need one square count table per label, columns summing "
                                             r"to shots = 4611686018427387904$"):
            detect_from_counts(table, 2**62, ["a"], cfg, 1, 100)
    for table in ([[[2**62 - 1, 2**62], [1, 0]]], np.array([[[2**62 - 1, 2**62], [1, 0]]])):
        assert detect_from_counts(table, 2**62, ["a"], cfg, 1, 100).point_estimate_bits >= 0.0
    # shots that are not an integer in [1, 2^63), as sample_transition takes
    # them; 2^63 is past int64, where comparing the column sums would overflow
    for bad_counts, shots in ((0 * counts, 0), (np.full((1, 2, 2), 2**62), 2**63), (counts, 5.0), (counts, 5.5)):
        with pytest.raises(ValueError, match=rf"^shots per input must be an integer in \[1, 2\^63\), got {shots}$"):
            detect_from_counts(bad_counts, shots, ["a", "b"][:len(bad_counts)], cfg, 1, 100)
    for resamples in (99, 150.0):
        with pytest.raises(ValueError, match=rf"^resamples must be an integer >= 100, got {resamples}$"):
            detect_from_counts(counts, 5, ["a", "b"], cfg, 1, resamples)
    # each table's columns sum to shots = 2, so only the cells are at fault
    for table, message in (([[0.5, 1.5], [1.5, 0.5]], r"^counts must be integers, got 0\.5 \(4 of 4 entries\)$"),
                           ([[-1, 3], [3, -1]], r"^counts = -1\.0 outside \[0, inf\] \(2 of 4 entries\)$"),
                           ([[np.nan, 2], [2, 0]], r"^counts must be a finite number, got nan$")):
        with pytest.raises(ValueError, match=message):
            detect_from_counts(np.array([table]), 2, ["z"], cfg, 1, 100)


def test_detect_from_counts_rejects_cells_that_are_no_numbers():
    # each table has the right shape and its columns would sum to shots:
    # string cells reached numpy's add.reduce, which raised TypeError, and
    # three boolean identity tables at shots = 1 read 1.0 bits. The cells
    # take the spec number rule, channels.check_numbers, and its texts
    cfg = DetectionConfig("pauli")
    for tables, shots, cell in (([[["1", "0"], ["0", "1"]]], 1, "'1'"),
                                ([[[True, False], [False, True]]] * 3, 1, "True"),
                                (np.eye(2, dtype=bool)[None], 1, "dtype bool"),
                                ([[[2, None], [0, 2]]], 2, "None"),
                                ([[[2j, 0], [0, 2]]], 2, "2j"),
                                # a duration is a numpy integer, but no count; numpy 2 writes np., 1.x numpy.
                                ([[[2, np.timedelta64(0)], [0, 2]]], 2, r"(np|numpy)\.timedelta64\(0\)")):
        with pytest.raises(ValueError, match=rf"^counts must be an array of numbers, got {cell}$"):
            detect_from_counts(tables, shots, ["x", "y", "z"][:len(tables)], cfg, 1, 100)
    # object, time and record arrays, whose cells numpy reads as ints, are
    # no table of counts: numpy's sums and draws took them as TypeError or
    # OverflowError; each array is judged by its dtype, in a list too
    records = np.zeros((1, 2, 2), dtype=[("n", int)])
    records["n"] = [[[2, 0], [0, 2]]]
    wide = np.array([[[2, 0], [0, 2]]], dtype=np.longdouble)
    for tables, dtype in ((np.array([[[2, 0], [0, 2]]], dtype=object), "object"),
                          (np.array([[[2, 0], [0, 2]]], dtype="m8"), "timedelta64"),
                          ([np.array([[2, 0], [0, 2]], dtype="M8[ns]")], re.escape("datetime64[ns]")),
                          (records, re.escape("[('n', '<i8')]")), (wide, str(wide.dtype))):
        with pytest.raises(ValueError, match=rf"^counts must be an array of numbers, got dtype {dtype}$"):
            detect_from_counts(tables, 2, ["z"], cfg, 1, 100)
    # an integer past 64 bits is a number, and its column's exact sum is no shots
    with pytest.raises(ValueError, match=r"^need one square count table per label, columns summing to shots = 2$"):
        detect_from_counts([[[2, 0], [2**70, 2]]], 2, ["z"], cfg, 1, 100)
    # integer and float tables of whole counts still pass, to the same value,
    # as do numpy integers and floats among Python numbers
    ints = np.array([[[3, 1], [2, 4]]])
    assert detect_from_counts(ints, 5, ["z"], cfg, 1, 100) == detect_from_counts(ints * 1.0, 5, ["z"], cfg, 1, 100)
    for tables in ([[[np.int64(c) for c in row] for row in ints[0]]],
                   [[[np.int64(3), 1], [np.float64(2), np.uint8(4)]]]):
        assert detect_from_counts(tables, 5, ["z"], cfg, 1, 100) == detect_from_counts(ints, 5, ["z"], cfg, 1, 100)


def test_detect_from_counts_rejects_a_bool_cell_among_numbers():
    # numpy casts [True, 1] to int64, so a bool cell among integers read as 1;
    # a numpy bool is named as Python's bool, alike on every numpy
    cfg = DetectionConfig("pauli")
    for tables, cell in (([[[True, 1], [4, 4]]], "True"), ([[[4, 1], [1.0, np.True_]]], "True"),
                         ([[[np.int64(4), 1], [np.int64(1), np.True_]]], "True"),
                         ([np.array([[4, 0], [1, 5]]), [[5, 1], [0, False]]], "False")):
        with pytest.raises(ValueError, match=rf"^counts must be an array of numbers, got {cell}$"):
            detect_from_counts(tables, 5, ["x", "y"][:len(tables)], cfg, 1, 100)
    # the same table with the number 1 in place of True passes
    assert detect_from_counts([[[1, 1], [4, 4]]], 5, ["z"], cfg, 1, 100).point_estimate_bits >= 0.0
