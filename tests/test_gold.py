"""Pseudo-noise preamble family: generation and correlation structure."""

import numpy as np
import pytest

from otafl.grid import PREAMBLE_DEGREE, gold_sequence


def _lfsr_oracle(taps, degree, length):
    """Reference Fibonacci LFSR, written independently from the library.

    State is a list of bits, all ones at start; feedback is the XOR of the
    tapped stages counted from the input side.
    """
    state = [1] * degree
    out = []
    for _ in range(length):
        fb = 0
        for t in taps:
            fb ^= state[t - 1]
        out.append(state[-1])
        state = [fb] + state[:-1]
    return np.array(out)


def _periodic_xcorr(a, b):
    """All circular correlation values of two bipolar sequences."""
    n = a.size
    return np.array([np.dot(a, np.roll(b, k)) for k in range(n)])


def test_msequence_balance_and_period():
    # one period of a maximal-length sequence of degree m holds 2^(m-1) ones
    seq = gold_sequence(0)
    assert seq.shape == (2**PREAMBLE_DEGREE - 1,)
    assert set(np.unique(seq)) == {-1.0, 1.0}
    ones = np.sum(seq == -1.0)  # bit 1 maps to -1
    assert ones == 2 ** (PREAMBLE_DEGREE - 1)


@pytest.mark.parametrize("index", [0, 1, 5])
def test_gold_sequence_returns_a_fresh_array(index):
    first = gold_sequence(index)
    want = first.copy()
    first[:] = 0.0
    np.testing.assert_array_equal(gold_sequence(index), want)


def test_bipolar_mapping_matches_reference_lfsr():
    n = 127
    got = gold_sequence(0)
    bits = _lfsr_oracle((7, 3), 7, n)
    np.testing.assert_array_equal(got, 1.0 - 2.0 * bits)


def test_family_members_are_distinct():
    family = [gold_sequence(k) for k in range(2**7 + 1)]
    as_tuples = {tuple(s) for s in family}
    assert len(as_tuples) == 2**7 + 1


def test_autocorrelation_peak_dominates():
    seq = gold_sequence(5)
    corr = _periodic_xcorr(seq, seq)
    assert corr[0] == 127
    assert np.max(np.abs(corr[1:])) <= 17


def test_cross_correlation_three_valued():
    """Preferred-pair Gold codes take circular cross-correlations only in
    {-2^((m+1)/2)-1, -1, 2^((m+1)/2)-1}; for degree 7 that is {-17,-1,15}."""
    a = gold_sequence(3)
    b = gold_sequence(60)
    values = set(int(round(v)) for v in _periodic_xcorr(a, b))
    assert values <= {-17, -1, 15}, f"unexpected correlation values {values}"


def test_rejects_bad_arguments():
    for index in (-1, 129, 130):  # family has 2^7 + 1 members
        with pytest.raises(ValueError):
            gold_sequence(index)


def test_deterministic():
    a = gold_sequence(42)
    b = gold_sequence(42)
    np.testing.assert_array_equal(a, b)
