"""Sturm bisection, the dense LAPACK oracle, and the truncation certificate."""

import itertools
import math
import re
import time
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest

from rabi_spectra import (
    Branch,
    ChainSelector,
    ConvergenceError,
    Parity,
    SymTriMatrix,
    build_chain,
    converged_levels,
    derive_params,
    eigenvalues_bisection,
    eigenvalues_dense,
    sturm_count,
)
from rabi_spectra import eigensolve
from rabi_spectra.eigensolve import (
    _NEWTON_SWEEPS,
    _SWEEP_SHIFTS,
    _bisect,
    _det_slopes,
    _first_truncation,
    _sturm_counts,
)
from rabi_spectra.model import _diag_asym


def random_chain(rng: np.random.Generator, n: int) -> SymTriMatrix:
    """A random chain from ``rng``; each test seeds its own, so it replays alone."""
    return SymTriMatrix(diag=rng.normal(0, 3, n), off=rng.normal(0, 2, n - 1))


class TestSturmCount:
    def test_diagonal_matrix(self):
        t = SymTriMatrix(diag=[1.0, 2.0, 3.0], off=[0.0, 0.0])
        assert sturm_count(t, 2.5) == 2
        assert sturm_count(t, 0.5) == 0
        assert sturm_count(t, 3.5) == 3

    def test_two_by_two_at_eigenvalue_shift(self):
        # Eigenvalues are -1 and +1; strictly below 0 there is exactly one.
        t = SymTriMatrix(diag=[0.0, 0.0], off=[1.0])
        assert sturm_count(t, 0.0) == 1

    def test_nan_shift_raises(self):
        # The sign bit of a NaN pivot would decide the count.
        t = SymTriMatrix(diag=[1.0, 2.0, 3.0], off=[0.5, 0.5])
        for x in (math.nan, -math.nan):
            with pytest.raises(ValueError, match="NaN"):
                sturm_count(t, x)
        assert (sturm_count(t, -math.inf), sturm_count(t, math.inf)) == (0, 3)

    def test_counts_match_jacobi_oracle(self):
        rng = np.random.default_rng(1)
        t = random_chain(rng, 50)
        oracle = eigenvalues_dense(t.to_dense()).values
        for x in rng.normal(0, 4, 25):
            assert sturm_count(t, float(x)) == int(np.sum(oracle < x))

    def test_monotone_in_shift(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            t = random_chain(rng, 30)
            xs = np.sort(rng.normal(0, 5, 40))
            counts = [sturm_count(t, float(x)) for x in xs]
            assert all(a <= b for a, b in zip(counts, counts[1:]))

    # Block edges of the sweep: sizes around multiples of 16 and the 785
    # sites of a criterion-9 chain.
    @pytest.mark.parametrize("n", [2, 15, 16, 17, 33, 785])
    def test_fused_sweep_matches_guarded_counts(self, n):
        # Integer diagonals with some couplings cut to zero split the chain
        # into blocks.  A shift at the diagonal entry of an isolated 1x1 block
        # is an exact eigenvalue, not counted, and puts a zero pivot next to a
        # zero coupling (0/0 unless the sweep skips the divide there).  The
        # reference is LAPACK on each block, for shifts that are such exact
        # hits or lie more than 1e-9 from every eigenvalue.
        rng = np.random.default_rng(3 + 1000 * n)
        diag = rng.integers(-3, 4, n).astype(float)
        off = rng.normal(0, 2, n - 1) * (rng.random(n - 1) < 0.7)
        t = SymTriMatrix(diag=diag, off=off)
        dense = t.to_dense()
        edges = np.concatenate([[0], np.flatnonzero(off == 0) + 1, [n]])
        blocks = list(zip(edges[:-1], edges[1:]))
        vals = np.concatenate([eigenvalues_dense(dense[a:b, a:b]).values for a, b in blocks])
        single = np.concatenate([np.full(b - a, b - a == 1) for a, b in blocks])
        xs = np.concatenate([rng.normal(0, 5, 200), np.arange(-3.0, 4.0), diag[:40]])
        dist = np.abs(np.subtract.outer(vals, xs))
        kept = np.all((dist > 1e-9) | ((dist == 0) & single[:, None]), axis=0)
        expected = np.sum(vals[:, None] < xs[kept], axis=0)
        np.testing.assert_array_equal(_sturm_counts(t, xs[kept]), expected)
        # Every size but 2 has isolated blocks, and some exact hits are kept.
        assert n == 2 or (dist[:, kept] == 0).any()

    @pytest.mark.parametrize(
        "diag, off",
        [
            # 1e-170 is nonzero, but its square underflows to 0.
            (np.arange(40.0) % 7, np.full(39, 1e-170)),
            (np.random.default_rng(14).integers(-5, 6, 2000).astype(float), np.zeros(1999)),
        ],
        ids=["underflowing-couplings", "diagonal-2000"],
    )
    def test_zero_squared_couplings_split_the_sweep(self, diag, off):
        # Where b^2 is 0 the pivot restarts at d_i - x; shifts at the diagonal
        # entries would meet 0/0 otherwise.
        t = SymTriMatrix(diag=diag, off=off)
        xs = np.concatenate([diag, diag + 0.5])
        np.testing.assert_array_equal(_sturm_counts(t, xs), np.sum(diag[:, None] < xs, axis=0))

    def test_exact_hit_on_reduced_matrix(self):
        # Shifts at diagonal entries of a split matrix put a zero pivot next
        # to a zero coupling; the sweep skips the divide there and restarts
        # the pivot at d_i - x.
        t = SymTriMatrix(diag=[1.0, 2.0, 3.0, 4.0], off=[0.0, 0.5, 0.0])
        oracle = eigenvalues_dense(t.to_dense()).values
        for x in [0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0, 10.0]:
            # Strictly below: the eigenvalues 1 and 4 hit exactly are not counted.
            assert sturm_count(t, x) == int(np.sum(oracle < x - 1e-12))
        assert sturm_count(SymTriMatrix(diag=[1.0, 2.0, 3.0], off=[0.0, 0.0]), 2.0) == 1

    def test_gershgorin_extremes(self):
        t = random_chain(np.random.default_rng(4), 40)
        radius = np.zeros(40)
        radius[:-1] += np.abs(t.off)
        radius[1:] += np.abs(t.off)
        assert sturm_count(t, float(np.min(t.diag - radius)) - 1e-9) == 0
        assert sturm_count(t, float(np.max(t.diag + radius)) + 1e-9) == 40


def full_sweep_counts(t: SymTriMatrix, xs: np.ndarray) -> np.ndarray:
    """Negative pivots over every site: the sweep's recurrence and skips, with no exit."""
    count = np.zeros(xs.shape, dtype=np.int64)
    q = np.empty(xs.shape)
    with np.errstate(divide="ignore", over="ignore"):
        for d, b_sq in zip(t.diag, np.concatenate([[0.0], t.off**2])):
            q = (d - xs) - b_sq / q if b_sq else d - xs
            count += np.signbit(q)
    return count


def shift_sets(t: SymTriMatrix, rng: np.random.Generator) -> dict[str, np.ndarray]:
    """Shifts over the whole Gershgorin interval, its bottom tenth, the diagonal, +-inf, one, none."""
    lo, hi = t.gershgorin()
    tenth = lo + 0.1 * (hi - lo)
    return {
        "gershgorin": np.concatenate([[lo, hi], rng.uniform(lo, hi, 62)]),
        "bottom-tenth": np.concatenate([[tenth], rng.uniform(lo, tenth, 255)]),
        "diagonal": t.diag.copy(),
        "infinite": np.array([-math.inf, math.inf]),
        "single": np.array([lo + 0.05 * (hi - lo)]),
        "empty": np.empty(0),
    }


class TestCountFreeTail:
    """The sweep's exit at a count-free tail leaves every count as the full sweep's."""

    @pytest.mark.parametrize("g", [1e-300, 1e-160, 0.01, 0.2, 0.45, 0.499])
    def test_counts_equal_full_sweep(self, g):
        rng = np.random.default_rng(int(1000 * g) + 21)
        for delta, parity, n in itertools.product(
            [0.0, 1.0, -6.0, 1e3], Parity, [2, 17, 48, 161, 700, 2000]
        ):
            t = build_chain(derive_params(g, delta), ChainSelector(Branch.PLUS, parity), n)
            sets = shift_sets(t, rng)
            # One reference sweep over every set at once.
            expected = full_sweep_counts(t, np.concatenate(list(sets.values())))
            for name, xs in sets.items():
                np.testing.assert_array_equal(
                    _sturm_counts(t, xs), expected[: xs.size], err_msg=f"{delta=} {parity} {n=} {name}"
                )
                expected = expected[xs.size :]

    def test_zero_couplings_in_the_tail(self):
        # A zero coupling's pivot floor is 0/0, which must never prove its site.  Every 7th
        # coupling is 0, and so is the last, which cuts off a site lowered below the shifts
        # just past the block boundary at 704.
        t = build_chain(derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 705)
        diag, off = t.diag.copy(), t.off.copy()
        off[6::7] = 0.0
        off[-1], diag[-1] = 0.0, diag[0]
        t = SymTriMatrix(diag=diag, off=off)
        for name, xs in shift_sets(t, np.random.default_rng(27)).items():
            np.testing.assert_array_equal(_sturm_counts(t, xs), full_sweep_counts(t, xs), err_msg=name)

    def test_shifts_past_the_double_range_raise_no_warning(self):
        # d - X overflows at the outer sites for either shift; the floor must not warn.
        t = SymTriMatrix(diag=[-8e307, 1.0, 8e307], off=[1.0, 0.5])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sturm_count(t, 1.7e308) == 3
            assert sturm_count(t, -1.7e308) == 0

    def test_exit_fires_past_the_top_shift(self, monkeypatch):
        t = build_chain(derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 2000)
        lo, hi = t.gershgorin()
        low = np.linspace(lo, lo + 0.1 * (hi - lo), 50)
        expected = full_sweep_counts(t, low)
        divide, divides = np.divide, [0]

        def counting(*args):
            divides[0] += 1
            return divide(*args)

        # Each swept site past the first divides once: every coupling is nonzero.
        monkeypatch.setattr(np, "divide", counting)
        np.testing.assert_array_equal(_sturm_counts(t, low), expected)
        assert 0 < divides[0] < t.n // 2
        divides[0] = 0
        assert sturm_count(t, hi + 1.0) == t.n
        assert divides[0] == t.n - 1


def certificate_counts(t, drop, hi, lo):
    """The one sweep of ``_enclose``: T_N counted at hi, T' (last diagonal lowered by drop) at lo."""
    last = np.full(hi.size + lo.size, t.diag[-1])
    last[hi.size :] -= drop
    counts = _sturm_counts(t, np.concatenate((hi, lo)), last)
    return counts[: hi.size], counts[hi.size :]


class TestCertificateSweep:
    """One sweep with a last diagonal per shift counts T_N and T' as two sweeps do."""

    @pytest.mark.parametrize("g", [1e-300, 1e-160, 0.01, 0.2, 0.45, 0.499])
    def test_counts_equal_separate_sweeps(self, g):
        rng = np.random.default_rng(int(1000 * g) + 33)
        changed = 0
        for delta, parity, n in itertools.product(
            [0.0, 1.0, -6.0, 1e3], Parity, [2, 17, 48, 161, 700, 2000]
        ):
            full = build_chain(derive_params(g, delta), ChainSelector(Branch.PLUS, parity), n + 1)
            t = SymTriMatrix(diag=full.diag[:-1], off=full.off[:-1])
            drop = full.off[-1]
            lowered = SymTriMatrix(diag=np.append(t.diag[:-1], t.diag[-1] - drop), off=t.off)
            sets = list(shift_sets(t, rng).values())
            # One reference sweep of each matrix over every set at once.
            every = np.concatenate(sets)
            ref_hi, ref_lo = _sturm_counts(t, every), _sturm_counts(lowered, every)
            changed += int(np.any(ref_hi != ref_lo))
            starts = np.cumsum([0] + [xs.size for xs in sets])
            # Each set is counted at hi beside the next set at lo, so that the top shift varies.
            for i, hi in enumerate(sets):
                j = (i + 1) % len(sets)
                got_hi, got_lo = certificate_counts(t, drop, hi, sets[j])
                err_msg = f"{delta=} {parity} {n=} {i=}"
                np.testing.assert_array_equal(got_hi, ref_hi[starts[i] : starts[i + 1]], err_msg=err_msg)
                np.testing.assert_array_equal(got_lo, ref_lo[starts[j] : starts[j + 1]], err_msg=err_msg)
        # Somewhere the sweep reaches the last site and the lowered diagonal changes a count;
        # below g 0.01 the drop is lost in the rounding of the last diagonal.
        assert changed > 0 or g < 0.01

    def test_zero_last_coupling(self):
        # The last coupling of T_N is 0, so the last site's pivot restarts at its diagonal and
        # its floor is 0/0; its diagonal is moved below the shifts, and lowered further in T'.
        t = build_chain(derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 705)
        diag, off = t.diag.copy(), t.off.copy()
        off[-1], diag[-1] = 0.0, diag[0] + 0.5
        t = SymTriMatrix(diag=diag, off=off)
        lowered = SymTriMatrix(diag=np.append(diag[:-1], diag[-1] - 1.0), off=off)
        sets = shift_sets(t, np.random.default_rng(34))
        sets["last"] = np.array([diag[0], diag[0] + 0.25, diag[0] + 0.75])
        for name, xs in sets.items():
            got_hi, got_lo = certificate_counts(t, 1.0, xs, xs)
            np.testing.assert_array_equal(got_hi, full_sweep_counts(t, xs), err_msg=name)
            np.testing.assert_array_equal(got_lo, full_sweep_counts(lowered, xs), err_msg=name)
        np.testing.assert_array_equal(got_lo - got_hi, [1, 1, 0])


def exact_counts(t: SymTriMatrix, xs: list, last: np.ndarray | None = None) -> np.ndarray:
    """Eigenvalues of ``t`` strictly below each exact shift, the last diagonal last_j for shift j.

    Sylvester's law of inertia on the LDL^T pivots q_i = p_i / p_{i-1} of
    T - x, with p_i its leading minors, recurred in exact integers after one
    common power-of-two scale.  A zero minor keeps its predecessor's sign:
    the limit from just below x, where an eigenvalue at x is not counted.  A
    zero coupling restarts the minors, as the sweep restarts its pivots.
    """
    lasts = [Fraction(t.diag[-1])] * len(xs) if last is None else [Fraction(v) for v in last]
    entries = [Fraction(v) for v in (*t.diag.tolist(), *t.off.tolist())]
    scale = max(v.denominator for v in entries + list(xs) + lasts)
    diag = [int(v * scale) for v in entries[: t.n]]
    off_sq = [0] + [int(v * scale) ** 2 for v in entries[t.n :]]
    counts = []
    for x, last_x in zip(xs, lasts):
        diag[-1] = int(last_x * scale)
        x = int(x * scale)
        count, sign, prev, prev2 = 0, 1, 1, 0
        for d, b_sq in zip(diag, off_sq):
            if not b_sq:
                sign, prev, prev2 = 1, 1, 0
            p = (d - x) * prev - b_sq * prev2
            new = sign if p == 0 else (1 if p > 0 else -1)
            count += new != sign
            sign, prev, prev2 = new, p, prev
        counts.append(count)
    return np.array(counts)


def audit_chains() -> list[SymTriMatrix]:
    """41-site chains at g 0.2, 0.45, 0.49 and Delta 0, 1, 6, and two cut from the second.

    One has zero couplings, the other couplings 1e-160, whose b^2 is
    subnormal; it has 24 sites, since its exact scale is 2^584.
    """
    selectors = itertools.cycle(ChainSelector(b, p) for b in Branch for p in Parity)
    chains = [
        build_chain(derive_params(g, delta), next(selectors), 41)
        for g, delta in itertools.product([0.2, 0.45, 0.49], [0.0, 1.0, 6.0])
    ]
    base = chains[1]
    for coupling, sites in ((0.0, [3, 17, 39]), (1e-160, [3, 11, 22])):
        n = sites[-1] + 2
        off = base.off[: n - 1].copy()
        off[sites] = coupling
        chains.append(SymTriMatrix(diag=base.diag[:n], off=off))
    return chains


class TestExactAudit:
    """exact_count(x - a) <= float count(x) <= exact_count(x + a), a = 4 eps max(1, |Gershgorin ends|)."""

    @pytest.mark.parametrize("lowered", [False, True], ids=["plain", "last"])
    def test_float_counts_within_the_allowance(self, lowered):
        steps = np.arange(-3, 4)
        for t in audit_chains():
            a = 4.0 * float(np.finfo(float).eps) * max(1.0, *np.abs(t.gershgorin()))
            # With ``last``, half the shifts count T' (the last diagonal lowered by a
            # nonzero coupling of the chain) and half T_N, in one sweep, as _enclose does.
            matrices, last = [t], None
            if lowered:
                drop = abs(t.off[-2])
                matrices.insert(0, SymTriMatrix(diag=np.append(t.diag[:-1], t.diag[-1] - drop), off=t.off))
                last = np.repeat([t.diag[-1] - drop, t.diag[-1]], t.n * steps.size)
            near = [np.linalg.eigvalsh(m.to_dense())[:, None] + steps * a for m in matrices]
            xs = np.concatenate([v.ravel() for v in near])
            got = _sturm_counts(t, xs, last)
            a = Fraction(a)
            below = exact_counts(t, [Fraction(x) - a for x in xs.tolist()], last)
            above = exact_counts(t, [Fraction(x) + a for x in xs.tolist()], last)
            assert np.all(below <= got) and np.all(got <= above)
            # Some shifts lie within a of a level, where the window is open.
            assert np.any(below < above)


class TestBisection:
    def test_two_by_two_closed_form(self):
        g = 0.25
        t = SymTriMatrix(diag=[0.0, 2.0], off=[g * math.sqrt(2.0)])
        vals = eigenvalues_bisection(t, 1e-12).values
        root = math.sqrt(1.125)
        np.testing.assert_allclose(vals, [1.0 - root, 1.0 + root], atol=1e-11)

    def test_zero_delta_chain_matches_oscillator(self):
        # Exactly solvable case: eigenvalues omega (n + 1/2) - 1/2 restricted
        # to even Fock indices.
        p = derive_params(0.2, 0.0)
        t = build_chain(p, ChainSelector(Branch.PLUS, Parity.EVEN), 200)
        vals = eigenvalues_bisection(t, 1e-9).values[:50]
        expected = p.omega * (2 * np.arange(50) + 0.5) - 0.5
        np.testing.assert_allclose(vals, expected, atol=1e-6)

    def test_matches_jacobi_on_chain(self):
        p = derive_params(0.35, 1.3)
        t = build_chain(p, ChainSelector(Branch.MINUS, Parity.ODD), 64)
        tol = 1e-11
        bis = eigenvalues_bisection(t, tol).values
        dense = eigenvalues_dense(t.to_dense()).values
        np.testing.assert_allclose(bis, dense, atol=10 * tol)

    def test_oracle_equivalence_random(self):
        tol = 1e-10
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 65))
            t = random_chain(rng, n)
            bis = eigenvalues_bisection(t, tol).values
            dense = eigenvalues_dense(t.to_dense()).values
            np.testing.assert_allclose(bis, dense, atol=10 * tol)

    def test_tol_guard(self):
        with pytest.raises(ValueError):
            eigenvalues_bisection(random_chain(np.random.default_rng(6), 4), 0.0)


class TestNonFinite:
    """NaN and inf entries are rejected where a matrix enters the solvers."""

    def test_bisection_rejects_nan(self):
        # Unchecked, the sweep returned [nan, nan].
        with pytest.raises(ValueError, match="finite"):
            eigenvalues_bisection(SymTriMatrix(diag=[math.nan, 1.0], off=[0.5]), 1e-10)

    def test_sturm_count_rejects_nan(self):
        # Unchecked, every comparison with the NaN pivots was false: count 0.
        with pytest.raises(ValueError, match="finite"):
            sturm_count(SymTriMatrix(diag=[math.nan, 1.0], off=[0.5]), 0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_dense_rejects_non_finite(self, bad):
        # Unchecked, a NaN diagonal gave a plausible-looking [-0.707, 0.707].
        with pytest.raises(ValueError, match="finite"):
            eigenvalues_dense(np.array([[bad, 0.5], [0.5, 1.0]]))
        with pytest.raises(ValueError, match="finite"):
            eigenvalues_dense(np.array([[0.0, bad], [bad, 1.0]]))

    @pytest.mark.parametrize("diag,off", [([math.inf, 1.0], [0.5]), ([0.0, 1.0], [-math.inf])])
    def test_bisection_rejects_inf(self, diag, off):
        # Unchecked, an infinite Gershgorin width raised OverflowError.
        with pytest.raises(ValueError, match="finite"):
            eigenvalues_bisection(SymTriMatrix(diag=diag, off=off), 1e-10)


def plain_bisect(t, lo, hi, tol):
    """Fixed halving from count(lo_k) <= k < count(hi_k): one sweep per step."""
    idx = np.arange(lo.size)
    steps = math.ceil(math.log2(float(np.max(hi - lo)) / tol)) + 1
    for sweeps in range(1, steps + 1):
        mid = 0.5 * (lo + hi)
        below = _sturm_counts(t, mid) <= idx
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
        if np.max(hi - lo) <= tol:
            break
    return lo, hi, sweeps


@pytest.fixture
def sweep_counter(monkeypatch):
    """Number of ``_sturm_counts`` sweeps made since the fixture was set up."""
    calls = [0]

    def counting(t, xs, *args):
        calls[0] += 1
        return _sturm_counts(t, xs, *args)

    monkeypatch.setattr(eigensolve, "_sturm_counts", counting)
    return calls


@pytest.fixture
def slope_counter(monkeypatch):
    """Number of ``_det_slopes`` sweeps made since the fixture was set up."""
    calls = [0]

    def counting(t, xs):
        calls[0] += 1
        return _det_slopes(t, xs)

    monkeypatch.setattr(eigensolve, "_det_slopes", counting)
    return calls


@pytest.fixture
def built_chains(monkeypatch):
    """Sizes of the chains ``converged_levels`` builds after the fixture is set up."""
    sizes = []

    def counting(params, chain, n_dim):
        sizes.append(n_dim)
        return build_chain(params, chain, n_dim)

    monkeypatch.setattr(eigensolve, "build_chain", counting)
    return sizes


def cert_floor(p, chain, levels):
    """tol floor of ``converged_levels``: 8 eps max(1, |Gershgorin ends|) of its chain."""
    full = build_chain(p, chain, _first_truncation(p, chain, levels) + 1)
    return 8 * np.finfo(float).eps * max(1.0, *np.abs(full.gershgorin()))


class TestMultisection:
    @pytest.mark.parametrize("g", [0.06, 0.2, 0.43, 0.485])
    def test_small_spectrum_takes_ten_sweeps(self, slope_counter, sweep_counter, g):
        # Newton from the three-term start, one sweep counting at every hi
        # and lo, and multisection of the levels that fail either from their
        # unchecked Weyl brackets: no sweep checks the start brackets.  Plain
        # bisection took 40.
        s = converged_levels(derive_params(g, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 20, 1e-10)
        assert s.path == "a_posteriori"
        assert sweep_counter[0] <= 8
        assert slope_counter[0] <= _NEWTON_SWEEPS

    def test_forced_short_start_sweeps(self, monkeypatch, sweep_counter):
        # At 64 sites the truncation lifts levels 14-19 above their Weyl
        # brackets.  Their brackets collapse onto the start tops, which are
        # kept, not widened to the Gershgorin interval, so the rejection
        # costs no more sweeps than a certificate: the one sweep counting at
        # every hi and lo, the (pts + 1)-fold cuts that take all 20 Weyl
        # brackets at most down to width tol - a, and one sweep counting the
        # brackets of those bisected.  From the Gershgorin interval the cuts take one sweep more.
        p, chain, tol = derive_params(0.49, -6.0), ChainSelector(Branch.PLUS, Parity.ODD), 1e-12
        monkeypatch.setattr(eigensolve, "_first_truncation", lambda *args: 64)
        with pytest.raises(ConvergenceError, match="chain dimension 64"):
            converged_levels(p, chain, 20, tol)
        allowance = 4 * np.finfo(float).eps * max(1.0, *np.abs(build_chain(p, chain, 65).gershgorin()))
        halvings = math.log2(2 * (abs(p.delta) / 2 + tol) / (tol - allowance))
        cuts = math.ceil(halvings / math.log2(_SWEEP_SHIFTS // 20 + 1))
        assert sweep_counter[0] <= 1 + cuts + 1 == 12

    @pytest.mark.parametrize("extra", [0, 3])
    def test_many_brackets_are_bisected(self, sweep_counter, extra):
        # From _SWEEP_SHIFTS brackets on, each sweep has one point per bracket:
        # the same sweeps and brackets as plain bisection.
        n = _SWEEP_SHIFTS + extra
        t = random_chain(np.random.default_rng(7 + 1000 * extra), n)
        bottom, top = t.gershgorin()
        lo, hi = np.full(n, bottom), np.full(n, top)
        got_lo, got_hi = _bisect(t, lo, hi, 1e-9)
        sweeps = sweep_counter[0]
        ref_lo, ref_hi, ref_sweeps = plain_bisect(t, lo, hi, 1e-9)
        assert sweeps == ref_sweeps
        np.testing.assert_array_equal(got_lo, ref_lo)
        np.testing.assert_array_equal(got_hi, ref_hi)

    def test_brackets_keep_invariant_on_random_chains(self):
        # Integer diagonals with some couplings cut make split chains with
        # repeated eigenvalues, where neighbouring brackets share points.
        tol = 1e-10
        rng = np.random.default_rng(8)
        for _ in range(40):
            n = int(rng.integers(2, 65))
            diag = rng.integers(-3, 4, n).astype(float)
            off = rng.normal(0, 2, n - 1) * (rng.random(n - 1) < 0.7)
            t = SymTriMatrix(diag=diag, off=off)
            k = int(rng.integers(1, n + 1))
            bottom, top = t.gershgorin()
            lo, hi = _bisect(t, np.full(k, bottom), np.full(k, top), tol)
            idx = np.arange(k)
            assert np.all(_sturm_counts(t, lo) <= idx)
            assert np.all(_sturm_counts(t, hi) > idx)
            assert np.all(hi - lo <= tol)

    def test_brackets_of_given_levels(self):
        # Levels 1, 5 and 9 only: the leading-run test reads their absolute
        # indices.  Read as levels 0, 1 and 2, level 1 came out certified at
        # 1.2913 where the true level is 1.4140.
        t = random_chain(np.random.default_rng(13), 12)
        ks = np.array([1, 5, 9])
        bottom, top = t.gershgorin()
        lo, hi = _bisect(t, np.full(3, bottom), np.full(3, top), 1e-10, ks)
        assert np.all(_sturm_counts(t, lo) <= ks)
        assert np.all(_sturm_counts(t, hi) > ks)
        dense = eigenvalues_dense(t.to_dense()).values[ks]
        np.testing.assert_allclose(0.5 * (lo + hi), dense, atol=1e-9)

    def test_separated_levels_count_distinct_shifts(self, monkeypatch):
        # One start sweep puts every level of a well-separated spectrum in a
        # cell of its own, so no shift is counted twice.  From one shared
        # Gershgorin start, 17% of the shifts of criterion-11-like solves
        # were duplicates.
        shifts = []

        def recording(t, xs):
            shifts.append(np.asarray(xs))
            return _sturm_counts(t, xs)

        monkeypatch.setattr(eigensolve, "_sturm_counts", recording)
        rng = np.random.default_rng(12)
        for _ in range(40):
            n = int(rng.integers(2, 65))
            t = SymTriMatrix(
                diag=2.0 * np.arange(n) + rng.uniform(-0.3, 0.3, n), off=rng.uniform(-0.2, 0.2, n - 1)
            )
            dense = eigenvalues_dense(t.to_dense()).values
            np.testing.assert_allclose(eigenvalues_bisection(t, 1e-10).values, dense, atol=1e-9)
        assert all(np.unique(xs).size == xs.size for xs in shifts)

    def test_tol_below_ulp_stops_at_sweep_bound(self, sweep_counter):
        # No bracket can reach width 1e-300; the sweep count is fixed in advance.
        t = random_chain(np.random.default_rng(9), 12)
        bottom, top = t.gershgorin()
        pts = _SWEEP_SHIFTS // t.n
        bound = math.ceil((math.log2(top - bottom) - math.log2(1e-300)) / math.log2(pts + 1)) + 1
        vals = eigenvalues_bisection(t, 1e-300).values
        assert sweep_counter[0] <= bound
        np.testing.assert_allclose(vals, eigenvalues_dense(t.to_dense()).values, atol=1e-12)


class TestJacobi:
    """The dense oracle ``eigenvalues_dense`` (LAPACK), under the ids of the
    cyclic Jacobi oracle it replaced."""

    def test_identity(self):
        s = eigenvalues_dense(np.eye(3))
        np.testing.assert_allclose(s.values, [1.0, 1.0, 1.0])

    def test_diagonal_sorting(self):
        s = eigenvalues_dense(np.diag([5.0, 1.0, 3.0]))
        np.testing.assert_allclose(s.values, [1.0, 3.0, 5.0])

    def test_two_by_two_exchange(self):
        s = eigenvalues_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(s.values, [-1.0, 1.0], atol=1e-14)

    def test_symmetry_violation(self):
        a = np.eye(3)
        a[0, 1] = 1e-6
        with pytest.raises(ValueError):
            eigenvalues_dense(a)

    def test_dimension_guard(self):
        with pytest.raises(ValueError):
            eigenvalues_dense(np.eye(513))

    def test_non_square_guard(self):
        with pytest.raises(ValueError):
            eigenvalues_dense(np.ones(4))
        with pytest.raises(ValueError):
            eigenvalues_dense(np.ones((3, 4)))

    def test_trace_preservation(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            t = random_chain(rng, 24).to_dense()
            s = eigenvalues_dense(t)
            assert abs(np.sum(s.values) - np.trace(t)) <= 1e-9 * max(1.0, abs(np.trace(t)))


class TestConvergedLevels:
    def test_zero_delta_closed_form(self):
        p = derive_params(0.2, 0.0)
        s = converged_levels(p, ChainSelector(Branch.PLUS, Parity.EVEN), 10, 1e-9)
        expected = p.omega * (2 * np.arange(10) + 0.5) - 0.5
        np.testing.assert_allclose(s.values, expected, atol=1e-8)

    def test_stable_under_further_doubling(self):
        p = derive_params(0.2, 1.0)
        chain = ChainSelector(Branch.PLUS, Parity.EVEN)
        tol = 1e-8
        s = converged_levels(p, chain, 100, tol)
        from rabi_spectra.eigensolve import _bisect_lowest

        again = _bisect_lowest(build_chain(p, chain, 2 * s.truncation_dim), 100, tol / 16)
        assert float(np.max(np.abs(np.sort(again) - s.values))) < tol

    def test_strong_coupling_terminates_with_larger_truncation(self):
        weak = converged_levels(
            derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 10, 1e-8
        )
        strong = converged_levels(
            derive_params(0.49, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 10, 1e-8
        )
        assert strong.truncation_dim >= weak.truncation_dim

    def test_interlacing_under_dimension_growth(self):
        # Bottom-compressed truncations: the k-th eigenvalue does not increase
        # with the dimension (Cauchy interlacing for bordered matrices).
        p = derive_params(0.3, 1.0)
        chain = ChainSelector(Branch.PLUS, Parity.ODD)
        tol = 1e-10
        prev = None
        for n_dim in (32, 64, 128):
            vals = eigenvalues_bisection(build_chain(p, chain, n_dim), tol).values[:16]
            if prev is not None:
                assert np.all(vals <= prev + 10 * tol)
            prev = vals

    def test_convergence_error_on_cap(self, monkeypatch):
        p = derive_params(0.2, 1.0)
        chain = ChainSelector(Branch.PLUS, Parity.EVEN)
        monkeypatch.setattr(eigensolve, "MAX_CHAIN_DIM", _first_truncation(p, chain, 40) - 1)
        with pytest.raises(ConvergenceError):
            converged_levels(p, chain, 40, 1e-8)

    def test_level_count_guard(self):
        with pytest.raises(ValueError):
            converged_levels(
                derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 0, 1e-8
            )

    def test_level_count_and_first_are_integers(self):
        # Unchecked, level_count 3.5 certified 4 levels and first 1.5 named "level 1.5" in an error.
        p, chain = derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN)
        for level_count, first in ((3.5, 0), (3, 1.5)):
            with pytest.raises(TypeError):
                converged_levels(p, chain, level_count, 1e-8, first)
        got = converged_levels(p, chain, np.int64(3), 1e-8, np.int32(1))
        want = converged_levels(p, chain, 3, 1e-8, 1)
        assert type(got.first) is int and got.first == 1
        np.testing.assert_array_equal(got.values, want.values)
        np.testing.assert_array_equal(got.bounds, want.bounds)

    def test_budget_checked_before_any_chain(self, monkeypatch):
        import rabi_spectra.eigensolve as eigensolve

        def refuse(*args, **kwargs):
            raise AssertionError("a chain was built before the budget check")

        monkeypatch.setattr(eigensolve, "build_chain", refuse)
        start = time.monotonic()
        with pytest.raises(ConvergenceError, match="cap"):
            converged_levels(
                derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 10**6, 1e-8
            )
        assert time.monotonic() - start < 1.0

    @pytest.mark.parametrize(
        "tol", [1e-300, 1e-15, 0.0, -1e-8, math.nan, math.inf, 8.99e307, 1.7e308]
    )
    def test_tol_floor_and_finiteness(self, tol):
        # 50 levels at g = 0.2 put the floor, 8 eps times the chain's Gershgorin top
        # end, at about 5.7e-13.  From 8.99e307 on, the start brackets of width
        # 2 (|Delta|/2 + tol) are wider than the largest double.
        with pytest.raises(ValueError):
            converged_levels(
                derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 50, tol
            )

    # The floor is twice the Sturm-count allowance 4 eps max(1, |Gershgorin
    # ends|) of the chain, whose top end grows with the truncation, and so
    # with |Delta|.  A rejected tol is caught before any Sturm sweep.
    @pytest.mark.parametrize("delta", [1.0, 300.0, -300.0])
    @pytest.mark.parametrize("levels", [1, 50])
    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_tol_at_floor_certifies(self, built_chains, sweep_counter, delta, levels, parity):
        p = derive_params(0.2, delta)
        chain = ChainSelector(Branch.PLUS, parity)
        floor = cert_floor(p, chain, levels)
        with pytest.raises(ValueError, match="floor"):
            converged_levels(p, chain, levels, np.nextafter(floor, 0.0))
        assert sweep_counter[0] == 0
        built_chains.clear()
        s = converged_levels(p, chain, levels, floor)
        assert float(np.max(s.bounds)) < floor
        assert len(built_chains) == 1 and s.truncation_dim == _first_truncation(p, chain, levels)

    @pytest.mark.parametrize(
        "g,delta,levels,tol",
        [(0.2, 1.0, 40, 1e-8), (0.49, -6.0, 20, 1e-12), (0.43, 0.0, 50, 1e-10)],
    )
    def test_one_chain_per_call(self, built_chains, monkeypatch, g, delta, levels, tol):
        p = derive_params(g, delta)
        chain = ChainSelector(Branch.PLUS, Parity.ODD)
        # At g 0.49 and Delta -6 the floor, about 3.5e-12, is above 1e-12.
        tol = max(tol, cert_floor(p, chain, levels))
        s = converged_levels(p, chain, levels, tol)
        assert len(built_chains) == 1
        assert built_chains[0] == s.truncation_dim + 1 == _first_truncation(p, chain, levels) + 1
        # A forced short start raises instead of building a second chain.
        monkeypatch.setattr(eigensolve, "_first_truncation", lambda *args: 64)
        with pytest.raises(ConvergenceError, match="chain dimension 64"):
            converged_levels(p, chain, levels, tol)
        assert len(built_chains) == 2


CRITERION_9 = (derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 401, 1e-8)


def lapack_levels(p, chain, levels, first=0):
    """Levels first .. first + levels - 1 by LAPACK at twice the first truncation, and their error."""
    dense = build_chain(p, chain, 2 * int(_first_truncation(p, chain, first + levels))).to_dense()
    # LAPACK's own error is of order eps times the matrix norm.
    error = np.finfo(float).eps * float(np.max(np.abs(dense).sum(axis=1)))
    return np.linalg.eigvalsh(dense)[first : first + levels], error


@pytest.fixture(scope="module")
def criterion_9_lapack():
    """Lowest levels of the criterion-9 chain by LAPACK at twice its first truncation, and their error."""
    return lapack_levels(*CRITERION_9[:3])


def assert_encloses(s, lapack):
    reference, lapack_error = lapack
    assert np.all(np.abs(s.values - reference) <= s.bounds + lapack_error)
    assert float(np.max(s.bounds)) < s.tol


class TestNewtonGuesses:
    def test_zero_delta_start_is_exact(self, slope_counter, sweep_counter):
        # At Delta = 0 the three-term start is the exact level, so the first
        # Newton step is late for no level: one slope sweep and one sweep
        # counting T_N at every hi and T' at every lo.
        s = converged_levels(derive_params(0.2, 0.0), ChainSelector(Branch.PLUS, Parity.EVEN), 300, 1e-8)
        assert slope_counter[0] == 1 and sweep_counter[0] == 1
        assert np.all(exact_zero_delta_errors(s, 0.2, Parity.EVEN) <= s.bounds)

    # Bisection took 28 sweeps and a count.  Newton from the three-term
    # formula stops once at most one level in 8 still takes a long step,
    # here after 2 sweeps.  Then come one sweep counting T_N at every hi and
    # T' at every lo, multisection of the levels that failed either, and one
    # sweep counting their brackets again.
    def test_criterion_9_chain_sweeps(self, slope_counter, sweep_counter, criterion_9_lapack):
        s = converged_levels(*CRITERION_9)
        assert slope_counter[0] == 2 < _NEWTON_SWEEPS
        assert sweep_counter[0] <= 7
        assert_encloses(s, criterion_9_lapack)

    # A NaN asymptotics sends every level back to mu_k, the Delta = 0 level,
    # from which Newton takes a sweep more and more levels are bisected.
    def test_criterion_9_mu_start_sweeps(self, monkeypatch, slope_counter, sweep_counter, criterion_9_lapack):
        monkeypatch.setattr(eigensolve, "_diag_asym", lambda p, fock: np.full(fock.shape, np.nan))
        s = converged_levels(*CRITERION_9)
        assert slope_counter[0] == 3 and sweep_counter[0] <= 9
        assert_encloses(s, criterion_9_lapack)

    # NaN slopes send every guess to its bracket top, zero slopes to its
    # bottom, and NaN on odd levels leaves the even ones to Newton: every
    # level that fails a count is bisected from its Weyl bracket.
    @pytest.mark.parametrize("slopes", ["nan", "zero", "nan_on_odd_levels"])
    def test_forced_fallback_certifies(self, monkeypatch, slopes, criterion_9_lapack):
        def forced(t, xs):
            got = _det_slopes(t, xs)
            if slopes == "zero":
                return np.zeros_like(got)
            got[slice(None) if slopes == "nan" else slice(1, None, 2)] = np.nan
            return got

        monkeypatch.setattr(eigensolve, "_det_slopes", forced)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s = converged_levels(*CRITERION_9)
        assert_encloses(s, criterion_9_lapack)

    # A start costs time, never the certificate: an infinite one is clipped
    # to a bracket end, one a level spacing 2 omega off sends Newton towards
    # the neighbouring level, and the constant 3.0 is clipped to the bracket
    # ends of most levels.
    @pytest.mark.parametrize(
        "asym",
        [
            lambda p, fock: np.full(fock.shape, np.inf),
            lambda p, fock: np.full(fock.shape, -np.inf),
            lambda p, fock: _diag_asym(p, fock) + 2.0 * p.omega,
            lambda p, fock: 3.5 - p.omega * (fock + 0.5),
        ],
        ids=["inf", "-inf", "next_level", "constant"],
    )
    def test_bad_start_certifies(self, monkeypatch, asym, criterion_9_lapack):
        monkeypatch.setattr(eigensolve, "_diag_asym", asym)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            s = converged_levels(*CRITERION_9)
        assert_encloses(s, criterion_9_lapack)

    # The start is formed after the work budget.
    def test_no_start_past_the_budget(self, monkeypatch):
        calls = []
        monkeypatch.setattr(eigensolve, "_diag_asym", lambda p, fock: calls.append(fock.size))
        p, chain, _, tol = CRITERION_9
        with pytest.raises(ConvergenceError, match="sites x levels"):
            converged_levels(p, chain, 2**40, tol)
        assert calls == []

    # Every level count takes one route.  The edges of its stop rule: below
    # 16 levels one guess may be left late, from 16 on two may.  Past 256
    # brackets a multisection sweep falls from two points per bracket to one.
    @pytest.mark.parametrize("levels", [1, 7, 8, 9, 15, 16, 255, 257])
    @pytest.mark.parametrize("g,delta", [(0.2, 1.0), (0.45, 6.0), (0.05, 20.0)])
    def test_one_route_at_every_level_count(self, slope_counter, g, delta, levels):
        p, chain = derive_params(g, delta), ChainSelector(Branch.PLUS, Parity.ODD)
        s = converged_levels(p, chain, levels, 1e-8)
        assert slope_counter[0] <= _NEWTON_SWEEPS
        assert_encloses(s, lapack_levels(p, chain, levels))


def lapack_slopes(t, xs):
    """sum_k 1/(x - lambda_k) from LAPACK's eigenvalues of ``t``, and the sum of its terms' sizes."""
    terms = 1.0 / np.subtract.outer(xs, np.linalg.eigvalsh(t.to_dense()))
    return terms.sum(axis=1), np.abs(terms).sum(axis=1)


def gap_midpoints(t, levels):
    """Midpoints between the lowest ``levels`` eigenvalues of ``t`` that are apart, and a shift below them."""
    lam = np.linalg.eigvalsh(t.to_dense())[:levels]
    mids = 0.5 * (lam[:-1] + lam[1:])[np.diff(lam) > 0.2]
    return np.concatenate([mids, [lam[0] - 1.0]])


class TestDetSlopes:
    """The complex-step slope is sum_k 1/(x - lambda_k), read at shifts away from the eigenvalues.

    Errors are relative to sum_k |1/(x - lambda_k)|, since G itself vanishes between
    symmetric neighbours.  They come from the pivot recurrence in double precision,
    not from the step: a near-zero pivot of a leading block loses digits (up to 1e-8
    relative on random 512-site chains), so random chains stay at 128 sites.
    """

    @pytest.mark.parametrize("n", [2, 17, 64, 128])
    def test_random_chains(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(5):
            t = random_chain(rng, n)
            xs = gap_midpoints(t, n)
            ref, size = lapack_slopes(t, xs)
            assert np.all(np.abs(_det_slopes(t, xs) - ref) <= 1e-10 * size)

    @pytest.mark.parametrize("n", [2, 15, 16, 17, 33, 128])
    def test_split_chains(self, n):
        # Exact-zero couplings restart the pivots: one mid-chain, one at the first
        # site of the second sweep block (or the last coupling), and about one in ten.
        rng = np.random.default_rng(80 + n)
        for _ in range(5):
            off = rng.normal(0, 2, n - 1)
            off[[(n - 1) // 2, min(15, n - 2)]] = 0.0
            off[rng.random(n - 1) < 0.1] = 0.0
            t = SymTriMatrix(diag=rng.normal(0, 3, n), off=off)
            xs = gap_midpoints(t, n)
            ref, size = lapack_slopes(t, xs)
            assert np.all(np.abs(_det_slopes(t, xs) - ref) <= 1e-10 * size)

    # At g 1e-300 every b^2 underflows to 0 and the chain is its diagonal.
    @pytest.mark.parametrize("g", [1e-300, 0.01, 0.2, 0.45, 0.499])
    def test_model_chains(self, g):
        for delta, parity, n in itertools.product([0.0, 1.0, -6.0], Parity, [64, 512]):
            t = build_chain(derive_params(g, delta), ChainSelector(Branch.PLUS, parity), n)
            xs = gap_midpoints(t, n // 4)
            ref, size = lapack_slopes(t, xs)
            got = _det_slopes(t, xs)
            assert np.all(np.abs(got - ref) <= 1e-10 * size), (delta, parity, n)

    def test_zero_pivot_gives_non_finite_slope(self):
        # x = 1 is the eigenvalue of the leading 1x1 block, so q_0 = 0.
        t = SymTriMatrix(diag=[1.0, 2.0, 3.0], off=[0.5, 0.5])
        assert not np.isfinite(_det_slopes(t, np.array([1.0]))).any()


def exact_zero_delta_errors(s, g, parity):
    """Distance of each certified value from the 40-digit Delta = 0 level."""
    with mp.workdps(40):
        omega = mp.sqrt(1 - 4 * mp.mpf(g) ** 2)
        half = mp.mpf(1) / 2
        ks = range(s.first, s.first + s.values.size)
        exact = [omega * (2 * k + parity.offset + half) - half for k in ks]
        return np.array([float(abs(mp.mpf(v) - e)) for v, e in zip(s.values, exact)])


class TestCertificate:
    @pytest.mark.parametrize("g", [0.1, 0.43, 0.45])
    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_bounds_enclose_exact_zero_delta_spectrum(self, g, parity):
        p = derive_params(g, 0.0)
        s = converged_levels(p, ChainSelector(Branch.PLUS, parity), 50, 1e-10)
        assert s.path == "a_posteriori"
        assert np.all(exact_zero_delta_errors(s, g, parity) <= s.bounds)
        assert np.all(s.bounds < 1e-10)

    # Near g = 1/2 the backward error of a Sturm count scales with the
    # chain's entries, about 2N, not with the level: an allowance of
    # 4 eps max(1, |value| + |Delta|/2) is up to 19.7 times too small at
    # g 0.499.  Every admitted tol down to the floor must certify validly.
    @pytest.mark.parametrize("g", [0.45, 0.49, 0.499])
    @pytest.mark.parametrize("levels", [7, 50])
    def test_bounds_valid_down_to_floor(self, g, levels):
        p = derive_params(g, 0.0)
        chain = ChainSelector(Branch.PLUS, Parity.ODD)
        floor = cert_floor(p, chain, levels)
        for tol in [1e-15, 3e-15, 1e-14, 3e-14, 1e-13, 3e-13, 1e-12, 3e-12, 1e-11, floor]:
            try:
                s = converged_levels(p, chain, levels, tol)
            except ValueError:
                assert tol < floor
                continue
            assert np.all(exact_zero_delta_errors(s, g, Parity.ODD) <= s.bounds), tol

    # At 200 sites and g 0.43 the tail floor clears all 50 levels, and every
    # bound is below tol, but the truncation ends short of the top
    # eigenvectors' turning points, so only the Sturm count of the lowered
    # truncation rejects it (13 levels).  The turning-point start (281 and
    # 284 sites here) never cuts a chain that short, so the count is
    # exercised from a forced start.
    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_short_start_rejected_by_lowered_count(self, monkeypatch, parity):
        monkeypatch.setattr(eigensolve, "_first_truncation", lambda *args: 200)
        with pytest.raises(ConvergenceError, match="not enclosed .* chain dimension 200"):
            converged_levels(
                derive_params(0.43, 0.0), ChainSelector(Branch.PLUS, parity), 50, 1e-10
            )

    # Delta 6 and 20 exceed twice the level spacing 2 omega, so the Weyl
    # brackets of neighbouring levels overlap; the enclosure needs no
    # separation and certifies them at the first truncation.
    @pytest.mark.parametrize(
        "g,delta",
        [(0.2, 1.0), (0.45, 1.0), (0.1, 6.0), (0.05, 20.0)],
        ids=["0.2", "0.45", "0.1-6.0", "0.05-20.0"],
    )
    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_bounds_enclose_lapack_at_double_truncation(self, g, delta, parity):
        p = derive_params(g, delta)
        chain = ChainSelector(Branch.PLUS, parity)
        s = converged_levels(p, chain, 40, 1e-10)
        assert s.path == "a_posteriori"
        assert s.truncation_dim == _first_truncation(p, chain, 40)
        t = build_chain(p, chain, 2 * s.truncation_dim)
        reference = np.linalg.eigvalsh(t.to_dense())[:40]
        # LAPACK's own error is of order eps times the matrix norm.
        lapack_error = np.finfo(float).eps * float(np.max(np.abs(t.to_dense()).sum(axis=1)))
        assert np.all(np.abs(s.values - reference) <= s.bounds + lapack_error)

    @pytest.mark.parametrize("g", [0.2, 0.45, 0.49])
    @pytest.mark.parametrize("delta", [0.0, 1.0, 6.0])
    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    @pytest.mark.parametrize("n_dim", [16, 64])
    def test_tail_floor_bounds_lowered_tail(self, g, delta, parity, n_dim):
        # Sites n_dim..8 n_dim of the chain, first diagonal lowered by the
        # coupling b to the last kept site: the dropped tail of the rank-one
        # split in converged_levels lies above the closed-form floor F.
        p = derive_params(g, delta)
        full = build_chain(p, ChainSelector(Branch.PLUS, parity), 8 * n_dim + 2)
        diag = full.diag[n_dim:-1].copy()
        diag[0] -= full.off[n_dim - 1]
        off = full.off[n_dim:]
        floor = (2 * n_dim + parity.offset) * (1 - 2 * g) - g - abs(delta) / 2
        # Row bounds of the infinite tail: each row keeps both its couplings.
        rows = diag - off - np.r_[0.0, off[:-1]]
        assert np.all(rows >= floor)
        block = SymTriMatrix(diag=diag, off=off[:-1])
        assert float(np.linalg.eigvalsh(block.to_dense())[0]) >= floor

    def test_strong_coupling_certifies_at_larger_truncation(self):
        # At g = 0.49 the turning point of the top level moves out, and the
        # one truncation lies far beyond the 64-site minimum.
        s = converged_levels(
            derive_params(0.49, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 10, 1e-8
        )
        assert s.path == "a_posteriori"
        assert s.truncation_dim > 64

    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_residual_chains_certify_at_first_truncation(self, parity):
        # The chains behind the three-term table of criterion 9 (n up to 800).
        levels = (800 - parity.offset) // 2 + 1
        p = derive_params(0.2, 1.0)
        chain = ChainSelector(Branch.PLUS, parity)
        s = converged_levels(p, chain, levels, 1e-8)
        assert s.path == "a_posteriori"
        assert s.truncation_dim == _first_truncation(p, chain, levels) <= 800
        assert float(np.max(s.bounds)) < 1e-8

    @pytest.mark.parametrize("g", [0.01, 0.2, 0.35, 0.43, 0.49])
    def test_first_truncation_needs_no_doubling(self, g):
        # Work, not time: the one truncation must certify every case, raising
        # no ConvergenceError.  tol is raised to the floor where needed.
        for delta, levels, tol, parity in itertools.product(
            [0.0, -6.0, 1.0],
            [1, 20, 120],
            [1e-6, 1e-12],
            [Parity.EVEN, Parity.ODD],
        ):
            p = derive_params(g, delta)
            chain = ChainSelector(Branch.PLUS, parity)
            tol = max(tol, cert_floor(p, chain, levels))
            first = _first_truncation(p, chain, levels)
            s = converged_levels(p, chain, levels, tol)
            assert s.truncation_dim == first, (g, delta, levels, tol, parity)

    def test_bounds_read_only(self):
        s = converged_levels(
            derive_params(0.2, 1.0), ChainSelector(Branch.PLUS, Parity.EVEN), 5, 1e-8
        )
        assert s.bounds.shape == s.values.shape
        with pytest.raises(ValueError):
            s.bounds[0] = 0.0
        with pytest.raises(ValueError):
            s.values[0] = 5.0
        # The caller's arrays are copied, not frozen.
        values, bounds = np.arange(3.0), np.full(3, 1e-8)
        eigensolve.Spectrum(values=values, truncation_dim=3, tol=1e-8, bounds=bounds)
        values[0] = bounds[0] = 5.0

    def test_spectrum_rejects_bad_bounds_and_path(self):
        with pytest.raises(ValueError, match="one entry per value"):
            eigensolve.Spectrum(values=np.arange(3.0), truncation_dim=3, tol=1e-8, bounds=[1e-8])
        with pytest.raises(ValueError, match="path"):
            eigensolve.Spectrum(values=np.arange(3.0), truncation_dim=3, tol=1e-8, path="guess")

    def test_direct_solves_default_bounds(self):
        s = eigenvalues_bisection(random_chain(np.random.default_rng(11), 6), 1e-10)
        assert s.path == "direct"
        np.testing.assert_array_equal(s.bounds, np.full(6, 1e-10))


WINDOW_CASES = list(itertools.product([0.2, 0.45, 0.49], [0.0, 1.0, 6.0]))


class TestWindows:
    """converged_levels(..., first=k0) certifies levels k0 .. k0 + count - 1 only."""

    @pytest.mark.parametrize("g", [0.2, 0.45, 0.49])
    @pytest.mark.parametrize("parity", [Parity.EVEN, Parity.ODD])
    def test_window_encloses_exact_zero_delta_levels(self, g, parity):
        s = converged_levels(derive_params(g, 0.0), ChainSelector(Branch.PLUS, parity), 20, 1e-10, first=40)
        assert s.first == 40 and s.values.size == 20
        assert np.all(exact_zero_delta_errors(s, g, parity) <= s.bounds)

    @pytest.mark.parametrize("g,delta", WINDOW_CASES)
    def test_window_encloses_lapack_at_double_truncation(self, g, delta):
        p, chain = derive_params(g, delta), ChainSelector(Branch.MINUS, Parity.ODD)
        s = converged_levels(p, chain, 12, 1e-10, first=40)
        assert s.truncation_dim == _first_truncation(p, chain, 52)
        assert_encloses(s, lapack_levels(p, chain, 12, first=40))

    @pytest.mark.parametrize("g,delta", WINDOW_CASES)
    def test_budget_counts_window_levels(self, monkeypatch, built_chains, g, delta):
        # At a cap of exactly the window's sites x levels the window certifies, though the
        # levels below it would put the whole solve past the cap.
        p, chain = derive_params(g, delta), ChainSelector(Branch.PLUS, Parity.EVEN)
        size = int(_first_truncation(p, chain, 210))
        monkeypatch.setattr(eigensolve, "MAX_CHAIN_WORK", size * 10)
        converged_levels(p, chain, 10, 1e-8, first=200)
        assert built_chains == [size + 1]
        with pytest.raises(ConvergenceError, match="levels 0 to 209 need"):
            converged_levels(p, chain, 210, 1e-8)
        monkeypatch.setattr(eigensolve, "MAX_CHAIN_WORK", size * 10 - 1)
        message = f"levels 200 to 209 need chain dimension {size:.3g} "
        with pytest.raises(ConvergenceError, match=re.escape(message)):
            converged_levels(p, chain, 10, 1e-8, first=200)
        assert len(built_chains) == 1

    @pytest.mark.parametrize("g,delta", WINDOW_CASES)
    def test_error_names_absolute_level(self, monkeypatch, g, delta):
        # At 64 sites the top levels of the window 40..51 are not enclosed.
        monkeypatch.setattr(eigensolve, "_first_truncation", lambda *args: 64)
        p, chain = derive_params(g, delta), ChainSelector(Branch.PLUS, Parity.EVEN)
        with pytest.raises(ConvergenceError, match="chain dimension 64") as info:
            converged_levels(p, chain, 12, 1e-10, first=40)
        level = int(str(info.value).split()[1])
        assert 40 <= level < 52

    def test_first_guard(self):
        with pytest.raises(ValueError, match="first"):
            converged_levels(*CRITERION_9[:2], 10, 1e-8, first=-1)
