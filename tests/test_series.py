"""Property test: v_limit keeps the bits of the chunked series where it stops.

`reference_v_limit` is the chunked loop of the direct route, kept here as
the oracle: it scans each chunk with whole-chunk temporaries. The chunk
schedule fixes the bits, so any sub-block width must reproduce them,
including stops that land before, on or after a sub-block edge and stops
whose raw test already holds within the first 10 terms. Where the reference
does not stop, `v_limit_superdiffusive` returns the Thomae value instead,
whether it skips the scan or falls back after it; that value must match
mpmath. The stop tolerance and the scan length are the module constants
`_SCAN_TOL` and `_SCAN_TERMS`, patched here to reach every route quickly.
"""

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lapsewalk.analytic as analytic


def reference_v_limit(alpha, tol, max_terms):
    """The direct route's value, or None if it does not stop in max_terms."""
    total = 1.0
    term = 1.0
    k = 0
    chunk = 1 << 16
    while k < max_terms:
        ks = np.arange(k + 1, k + 1 + chunk, dtype=np.float64)
        terms = term * np.cumprod((ks / (ks + alpha)) ** 2)
        partials = total + np.cumsum(terms)
        done = (terms < tol * partials) & (ks > 10)
        if done.any():
            stop = int(np.argmax(done))
            total = float(partials[stop])
            term = float(terms[stop])
            k = int(ks[stop])
            break
        total = float(partials[-1])
        term = float(terms[-1])
        k = int(ks[-1])
        chunk = min(chunk * 2, 1 << 22)
    else:
        return None
    m = k + 1
    t_m = term * ((m / (m + alpha)) ** 2)
    ms = m + (1.0 + alpha) / 2.0
    tail = t_m * (ms / (2.0 * alpha - 1.0) + 0.5 + alpha / (6.0 * ms))
    return total + tail


def check_against_reference(got, alpha, tol, max_terms):
    want = reference_v_limit(alpha, tol, max_terms)
    if want is not None:
        assert got.hex() == want.hex()
    else:
        with mpmath.workdps(30):
            a1 = mpmath.mpf(alpha) + 1
            exact = float(mpmath.hyp3f2(1, 1, 1, a1, a1, 1))
        assert abs(got - exact) / exact <= 1e-13


@st.composite
def series_case(draw):
    block = draw(st.sampled_from([1, 7, 4096]))
    alpha = draw(st.floats(0.5, 1.0, exclude_min=True))
    # a one-term sub-block costs a Python iteration per term, so block 1
    # keeps to tolerances at which the series stops within ~1e4 terms
    log_tol = draw(st.floats(-5.0 if block == 1 else -9.0, -2.0))
    return block, alpha, 10.0 ** log_tol


# a scan of 3 * 2^16 terms runs at most two chunks (65536 and 131072 terms):
# a series that has not stopped by then takes the Thomae route, one that has
# returns its value. At alpha = 0.6 the scan is skipped for tol below
# ~8.0293e-8 and cannot stop for tol below ~8.0374e-8; in between it runs
# and falls back.
SCAN_TERMS = 3 << 16
SKIP, FALLBACK, STOP = 8.0e-8, 8.033e-8, 8.04e-8


def v_limit_patched(mp, alpha, tol):
    mp.setattr(analytic, "_SCAN_TOL", tol)
    mp.setattr(analytic, "_SCAN_TERMS", SCAN_TERMS)
    return analytic.v_limit_superdiffusive(alpha)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(case=series_case())
@example(case=(1, 1.0, 1e-2))  # the raw test holds from k = 8, the stop is 11
@example(case=(7, 1.0, 1e-2))
@example(case=(4096, 1.0, 1e-2))
@example(case=(4096, 0.6, SKIP))
@example(case=(4096, 0.6, FALLBACK))
@example(case=(7, 0.6, FALLBACK))
@example(case=(4096, 0.6, STOP))
def test_series_matches_reference_bits(case):
    block, alpha, tol = case
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(analytic, "_SERIES_BLOCK", block)
        got = v_limit_patched(mp, alpha, tol)
    check_against_reference(got, alpha, tol, SCAN_TERMS)


@pytest.mark.parametrize("tol, scans", [(SKIP, []), (FALLBACK, [None]),
                                        (STOP, ["value"])])
def test_skip_and_fallback_routes(monkeypatch, tol, scans):
    direct = analytic._v_limit_direct
    seen = []

    def spy(*args):
        out = direct(*args)
        seen.append(None if out is None else "value")
        return out

    monkeypatch.setattr(analytic, "_v_limit_direct", spy)
    got = v_limit_patched(monkeypatch, 0.6, tol)
    assert seen == scans
    check_against_reference(got, 0.6, tol, SCAN_TERMS)


def test_scan_terms_end_the_chunk_that_reaches_1e8():
    # the scan gives up at the first chunk end at or past 1e8 terms
    k, chunk = 0, 1 << 16
    while k < 10 ** 8:
        k += chunk
        chunk = min(chunk * 2, 1 << 22)
    assert analytic._SCAN_TERMS == k


@pytest.mark.parametrize("alpha, tol", [(0.75, 1e-10), (0.9, 1e-10),
                                        (1.0, 1e-10), (1.0, 1e-12)])
def test_series_matches_reference_bits_over_many_chunks(monkeypatch, alpha, tol):
    monkeypatch.setattr(analytic, "_SCAN_TOL", tol)
    got = analytic.v_limit_superdiffusive(alpha)
    assert got.hex() == reference_v_limit(alpha, tol, 10 ** 8).hex()
