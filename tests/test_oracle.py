"""Numeric cubic oracle: convergence, clustering, determinism."""

import inspect
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from loopbraid import catalog, extend
from loopbraid.cyclotomic import common_field
from loopbraid.errors import DimMismatch, InvalidOption
from loopbraid.linalg import CMatrix


def test_scalar_case_finds_cube_roots_of_unity():
    one = CMatrix([[1]], 1)
    report = extend.numeric_cubic_oracle(extend._basis_matrices(one, one), starts=60, seed=1)
    assert report.converged > 0
    assert len(report.clusters) == 3
    for c in report.clusters:
        assert abs(c.centroid[0] ** 3 - 1) < 1e-7
        assert c.max_residual < report.tol


def test_tw3_clusters_contain_standard_solutions():
    rep = catalog.tw3(1, 2, 3)
    report = extend.numeric_cubic_oracle(
        extend._basis_matrices(rep.A, rep.B), starts=2000, seed=2
    )
    kmag = (1 / 36) ** (1 / 3)
    standard = [
        c
        for c in report.clusters
        if abs(abs(c.centroid[0]) - kmag) < 1e-6
        and max(abs(z) for z in c.centroid[1:]) < 1e-8
    ]
    assert len(standard) == 3
    for c in standard:
        assert abs(c.centroid[0] ** 3 - 1 / 36) < 1e-9


def test_oracle_deterministic_under_seed():
    rep = catalog.tw3(1, 1, 1)
    r1 = extend.numeric_cubic_oracle(extend._basis_matrices(rep.A, rep.B), starts=200, seed=9)
    r2 = extend.numeric_cubic_oracle(extend._basis_matrices(rep.A, rep.B), starts=200, seed=9)
    assert r1.converged == r2.converged
    assert len(r1.clusters) == len(r2.clusters)
    for c1, c2 in zip(r1.clusters, r2.clusters):
        assert c1.size == c2.size
        assert c1.centroid == c2.centroid


def test_oracle_refuses_a_basis_whose_length_is_not_its_size():
    # the oracle takes d matrices of size d x d; a basis of another length
    # is refused with both numbers, before numpy sees it
    rep = catalog.counterexample6()
    basis = extend._basis_matrices(rep.A, rep.B)
    with pytest.raises(DimMismatch, match="oracle needs 6 basis matrices of size 6, got 3"):
        extend.numeric_cubic_oracle(basis[:3], starts=10)
    rep = catalog.tw3(1, 2, 3)
    with pytest.raises(DimMismatch, match="oracle needs 3 basis matrices of size 3, got 9"):
        extend.numeric_cubic_oracle(extend._basis_matrices(rep.A, rep.B) * 3, starts=10)


def test_oracle_matches_exact_candidates():
    rep = catalog.counterexample6()
    (a, b), _ = common_field(rep.A, rep.B, extra=3)
    basis = extend._basis_matrices(a, b)
    cands = extend.default_polynomial_candidates(basis)
    assert len(cands) == 6
    report = extend.numeric_cubic_oracle(basis, starts=500, seed=4, exact_candidates=cands)
    assert report.clusters
    for c in report.clusters:
        assert c.nearest_candidate is not None
        assert c.nearest_distance < 1e-8


def _einsum_jacobian_t(e, s):
    # the Jacobian as the oracle first computed it, kept as the reference
    s2 = s @ s
    t1 = np.einsum("kij,sjl->skil", e, s2)
    t2 = np.einsum("sij,kjl,slm->skim", s, e, s)
    t3 = np.einsum("sij,kjl->skil", s2, e)
    return (t1 + t2 + t3).reshape(len(s), len(e), -1)


@pytest.mark.parametrize("d", [1, 3, 6])
def test_jacobian_matches_einsum_and_finite_differences(d):
    rng = np.random.default_rng(d)
    e = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
    bvec = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
    s = (bvec @ e.reshape(d, d * d)).reshape(5, d, d)
    p, linearize = extend._cubic_jacobian(e)
    jt = linearize(bvec)[0] @ p  # coordinates back to entries
    assert jt.shape == (5, d, d * d)
    assert np.abs(jt - _einsum_jacobian_t(e, s)).max() < 1e-12

    def cube(b):
        m = (b @ e.reshape(d, d * d)).reshape(d, d)
        return (m @ m @ m - np.eye(d)).reshape(-1)

    h = 1e-6
    for n, b in enumerate(bvec):
        for k in range(d):
            step = np.zeros(d)
            step[k] = h
            fd = (cube(b + step) - cube(b - step)) / (2 * h)
            scale = max(1.0, np.abs(fd).max())
            assert np.abs(fd - jt[n, k]).max() < 1e-6 * scale


@pytest.mark.parametrize("d", [2, 4, 5, 8])
def test_jacobian_property_einsum_and_euler(d):
    # d = 8 is the largest dimension the oracle takes
    for seed in range(5):
        rng = np.random.default_rng([d, seed])
        e = rng.standard_normal((d, d, d)) + 1j * rng.standard_normal((d, d, d))
        bvec = rng.standard_normal((8, d)) + 1j * rng.standard_normal((8, d))
        s = (bvec @ e.reshape(d, d * d)).reshape(8, d, d)
        p, linearize = extend._cubic_jacobian(e)
        jt = linearize(bvec)[0] @ p  # coordinates back to entries
        ref = _einsum_jacobian_t(e, s)
        assert np.abs(jt - ref).max() <= 1e-14 * np.abs(ref).max()
        # S(b)^3 is homogeneous of degree 3 in b: sum_k b_k dF/db_k = 3 S^3.
        # A full contraction with b cannot see which factor E_k sits in, so
        # the einsum comparison above is what pins the three terms.
        cube = (s @ s @ s).reshape(8, d * d)
        euler = np.einsum("nk,nkx->nx", bvec, jt)
        assert np.abs(euler - 3 * cube).max() <= 1e-14 * np.abs(cube).max()


def _basis_array(rep):
    return np.stack(
        [
            np.array([[x.to_complex() for x in row] for row in m.rows])
            for m in extend._basis_matrices(rep.A, rep.B)
        ]
    )


@pytest.mark.parametrize(
    "case, dim",
    [("counterexample6", 21), ("tw3(1,2,3)", 6), ("random d=2", 3)],
)
def test_coordinates_keep_the_normal_equations(case, dim):
    if case == "counterexample6":
        e = _basis_array(catalog.counterexample6())
    elif case == "tw3(1,2,3)":
        e = _basis_array(catalog.tw3(1, 2, 3))
    else:
        rng = np.random.default_rng([2, 0])
        e = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
    d = len(e)
    p, linearize = extend._cubic_jacobian(e)
    assert p.shape == (dim, d * d)
    assert np.abs(p @ p.conj().T - np.eye(dim)).max() < 1e-14
    if case == "random d=2":
        # the projector p^H p is complex here, and real on counterexample6
        assert np.abs((p.conj().T @ p).imag).max() > 0.1
    rng = np.random.default_rng(d)
    bvec = rng.standard_normal((8, d)) + 1j * rng.standard_normal((8, d))
    s = (bvec @ e.reshape(d, d * d)).reshape(8, d, d)
    ref_j = _einsum_jacobian_t(e, s)
    ref_f = (s @ s @ s - np.eye(d)).reshape(8, d * d, 1)
    jt, f = linearize(bvec)
    assert np.abs(f @ p - ref_f[..., 0]).max() <= 1e-13 * np.abs(ref_f).max()
    jh = jt.conj()
    for got, ref in (
        (jh @ jt.transpose(0, 2, 1), ref_j.conj() @ ref_j.transpose(0, 2, 1)),
        (jh @ f[..., None], ref_j.conj() @ ref_f),
    ):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()


def test_hpd_solver_matches_lapack_and_ignores_the_batch():
    rng = np.random.default_rng(3)
    for d in (1, 2, 6, 8):
        x = rng.standard_normal((9, d, 3 * d)) + 1j * rng.standard_normal((9, d, 3 * d))
        g = x.conj() @ x.transpose(0, 2, 1)
        rhs = rng.standard_normal((9, d)) + 1j * rng.standard_normal((9, d))
        sol = extend._solve_hpd(g.transpose(1, 2, 0), rhs.T).T
        ref = np.linalg.solve(g, rhs[..., None])[..., 0]
        assert np.abs(sol - ref).max() <= 1e-12 * np.abs(ref).max()
        for size in (1, 2, 3):
            for lo in range(0, 9 - size + 1):
                part = slice(lo, lo + size)
                alone = extend._solve_hpd(g[part].transpose(1, 2, 0), rhs[part].T).T
                assert np.array_equal(alone, sol[part])


def _entry_gate(f, p, thr):
    # the step gate as the sweep-ordered loop decides it, in entries
    r = np.abs(extend._gemm_rows(f, p)).max(axis=1)
    return np.isfinite(r) & (r > thr)


def _sweep_ordered_gauss_newton(bvec, p, linearize, thr):
    # the Newton loop as it ran before each block ran to its end, kept as
    # the reference: every sweep regroups the pending starts into blocks of
    # 256 and maps F to entries for the step gate
    d = bvec.shape[1]
    pending = np.arange(len(bvec))
    for _ in range(extend._ORACLE_MAX_ITER):
        stepped = []
        for lo in range(0, len(pending), 256):
            blk = pending[lo : lo + 256]
            jt, f = linearize(bvec[blk])
            go = _entry_gate(f, p, thr)
            if not go.any():
                continue
            if not go.all():
                blk, jt, f = blk[go], jt[go], f[go]
            jh = jt.conj()
            gram = (jh @ jt.transpose(0, 2, 1)).transpose(1, 2, 0)
            gram[range(d), range(d)] += 1e-12  # damping
            bvec[blk] -= extend._solve_hpd(gram, (jh @ f[..., None])[..., 0].T).T
            stepped.append(blk)
        if not stepped:
            break
        pending = np.concatenate(stepped)


def test_oracle_matches_the_sweep_ordered_reference(monkeypatch):
    # the reference retires no stalled start.  At seeds 12 and 36 a looser
    # stall rule (one sweep, 1e-6 of |f|_2) retires a start that converges
    c6 = catalog.counterexample6()
    cases = [(c6, 300, 5), (catalog.tw3(1, 1, 1), 300, 5)]
    cases += [(c6, 2000, seed) for seed in (0, 12, 36)]
    for rep, starts, seed in cases:
        basis = extend._basis_matrices(rep.A, rep.B)
        report = extend.numeric_cubic_oracle(basis, starts=starts, seed=seed)
        assert report.converged > 0
        with monkeypatch.context() as m:
            m.setattr(extend, "_gauss_newton", _sweep_ordered_gauss_newton)
            reference = extend.numeric_cubic_oracle(basis, starts=starts, seed=seed)
        assert report == reference, (starts, seed)


def test_oracle_report_independent_of_block_size(monkeypatch):
    # the default block holds all 300 starts.  Blocks of 299 and 13 leave
    # start 299 alone in the last block, chunks of 299 leave one start
    # alone in the last chunk, and blocks shrink to one pending start as
    # starts leave: lone starts, which numpy would send to gemv
    assert extend._ORACLE_BLOCK >= 300
    for rep, sizes in (
        (catalog.tw3(1, 1, 1), ((256, 128), (299, 128), (13, 128), (7, 128), (3, 128), (512, 299))),
        (catalog.counterexample6(), ((256, 128), (299, 128), (13, 128), (3, 128), (512, 7))),
    ):
        basis = extend._basis_matrices(rep.A, rep.B)
        default = extend.numeric_cubic_oracle(basis, starts=300, seed=5)
        assert default.converged > 0
        for block, chunk in sizes:
            monkeypatch.setattr(extend, "_ORACLE_BLOCK", block)
            monkeypatch.setattr(extend, "_ORACLE_CHUNK", chunk)
            blocked = extend.numeric_cubic_oracle(basis, starts=300, seed=5)
            monkeypatch.undo()
            assert blocked == default, (block, chunk)


def _normal_equation_rows(monkeypatch, basis, **options):
    # (report, rows that entered `_normal_equations`, one per start-step)
    rows = []
    normal_equations = extend._normal_equations

    def counting(jt, f):
        rows.append(len(jt))
        return normal_equations(jt, f)

    with monkeypatch.context() as m:
        m.setattr(extend, "_normal_equations", counting)
        report = extend.numeric_cubic_oracle(basis, **options)
    return report, sum(rows)


def test_stalled_starts_retire(monkeypatch):
    # seed 0, 2000 starts: 1562 starts stall where |f|_2 is 1.7 to 2.1.
    # Stepped to the sweep cap from the drawn starts, they took 132,173
    # rows; with the stalled ones retired 65,412, and from scaled starts,
    # which skip the sweeps that only shrink b, 43,711
    rep = catalog.counterexample6()
    (a, b), _ = common_field(rep.A, rep.B, extra=3)
    report, rows = _normal_equation_rows(
        monkeypatch, extend._basis_matrices(a, b), starts=2000, seed=0
    )
    assert (report.converged, report.diverged, report.unconverged) == (438, 0, 1562)
    assert rows <= 50_000, rows


def test_stall_floor_follows_tol(monkeypatch):
    # the floor is 1e6 tol.  At tol 1e-5 it is 10, above the |f|_2 where
    # 386 of these starts stall, and at tol 10 it is 1e7, above every
    # |f|_2 of these scaled starts (at most 78): no start retires, so the
    # run takes the steps and gives the report of a run whose stall window
    # outlasts the sweep cap.  At tol 1e3 no scaled start would step at all
    rep = catalog.counterexample6()
    basis = extend._basis_matrices(rep.A, rep.B)
    for tol, unconverged in ((1e-5, 386), (10.0, 0)):
        retiring = _normal_equation_rows(monkeypatch, basis, starts=500, seed=3, tol=tol)
        monkeypatch.setattr(extend, "_ORACLE_STALL_SWEEPS", extend._ORACLE_MAX_ITER)
        capped = _normal_equation_rows(monkeypatch, basis, starts=500, seed=3, tol=tol)
        monkeypatch.undo()
        assert retiring == capped, tol
        assert retiring[1] > 0, tol
        assert retiring[0].unconverged == unconverged


def test_stall_rule_on_still_and_non_finite_starts():
    # a zero Jacobian leaves every b where it is, so each start's f = b
    # never moves.  Each start is counted at every sweep it is evaluated in
    p = np.eye(1, dtype=complex)
    seen = {}

    def linearize(bv):
        for b in bv[:, 0]:
            key = repr(complex(b))
            seen[key] = seen.get(key, 0) + 1
        return np.zeros((len(bv), 1, 1), dtype=complex), bv.copy()

    bvec = np.array([[1.0], [1e-5], [1e200], [np.nan], [1e-20]], dtype=complex)
    with np.errstate(all="raise"):
        extend._gauss_newton(bvec, p, linearize, 1e-11)
    sweeps = [seen[repr(complex(b))] for b in bvec[:, 0]]
    # |f|_2 = 1, at least the floor 1e-3: retired once it stood still for
    # three sweeps, so it is evaluated four times and stepped three.  1e-5
    # lies below the floor, and the square of 1e200 overflows |f|_2: both
    # step to the cap.  NaN leaves at once, and so does 1e-20, below thr
    cap = extend._ORACLE_MAX_ITER
    assert sweeps == [extend._ORACLE_STALL_SWEEPS + 1, cap, cap, 1, 1]


def _gate_rows(p, thr, rng):
    # coordinate rows around both thresholds of the gate: |f|_2 near
    # 2 d thr, the largest entry of F near thr, zero, tiny, huge and
    # non-finite rows
    m, d = len(p), math.isqrt(p.shape[1])
    u = rng.standard_normal((40, m)) + 1j * rng.standard_normal((40, m))
    u /= np.linalg.norm(u, axis=1)[:, None]
    rows = []
    for i, t in enumerate((1 - 1e-12, 1 - 1e-15, 1, 1 + 1e-15, 1 + 1e-12, 0.5, 1.5)):
        rows.append(u[i] * (2 * d * thr * t))  # |f|_2 = 2 d thr t
        top = np.abs(u[20 + i] @ p).max()
        rows.append(u[20 + i] * (thr * t / top))  # max|F_ij| = thr t
    for i, scale in enumerate((0.0, 1e-160, 1e-300, 1e200, 1e300)):
        rows.append(u[10 + i] * scale)
    for bad in (np.inf, -np.inf, np.nan, complex(np.inf, np.nan)):
        row = u[30].copy()
        row[-1] = bad
        rows.append(row)
    return np.array(rows, dtype=complex).reshape(-1, m)


@pytest.mark.parametrize("case", ["counterexample6", "random d=2", "identity", "empty"])
def test_norm_gate_decides_as_the_entry_gate(case):
    if case == "counterexample6":
        p, _ = extend._cubic_jacobian(_basis_array(catalog.counterexample6()))
        assert p.shape == (21, 36)
    elif case == "random d=2":
        rng = np.random.default_rng([2, 0])
        e = rng.standard_normal((2, 2, 2)) + 1j * rng.standard_normal((2, 2, 2))
        p, _ = extend._cubic_jacobian(e)
        assert np.abs(p.imag).max() > 0.1  # complex coordinates
    elif case == "identity":
        p = np.eye(9, dtype=complex)  # V is all of C^(d*d): entry coordinates
    else:
        p = np.zeros((0, 36), dtype=complex)  # C not finite: V is empty
    rng = np.random.default_rng(7)
    for thr in (1e-11, 1e-3, 1e-160, 1e-300, 1e290):
        f = _gate_rows(p, thr, rng) if len(p) else np.zeros((5, 0), dtype=complex)
        with np.errstate(over="ignore", invalid="ignore"):
            go, _ = extend._steps_on(f, p, thr)
            ref = _entry_gate(f, p, thr)
        assert np.array_equal(go, ref), (thr, np.flatnonzero(go != ref))
        if len(p) and thr == 1e-11:
            assert ref.any() and not ref.all()


def test_oracle_memory_peak_on_counterexample6():
    # traced after one warm-up call, seed 0, 2000 starts: 2.26 MiB with
    # blocks of 256 whose Jacobians outlived their sweep, 2.32 MiB measured
    # with blocks of 512, each Jacobian dropped before its solve and its
    # conjugate formed 128 starts at a time, 2.33 MiB with the stall
    # rule's two per-start arrays, and 2.34 MiB with the start scale,
    # whose S(b)^3 is formed a block at a time (3.56 MiB for all 2000
    # starts at once).  The bound is 2.25 MiB plus a 0.25 MiB margin; two
    # Jacobians of 512 starts alive at once exceed it
    rep = catalog.counterexample6()
    (a, b), _ = common_field(rep.A, rep.B, extra=3)
    basis = extend._basis_matrices(a, b)
    extend.numeric_cubic_oracle(basis, starts=100, seed=0)
    tracemalloc.start()
    try:
        extend.numeric_cubic_oracle(basis, starts=2000, seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 2**20, peak / 2**20


class _StopBeforeNewton(Exception):
    pass


def test_start_scale_on_zero_and_overflowing_cubes(monkeypatch):
    # S(b)^3 is 0 for every start of a zero basis and overflows for every
    # start of the 10^120 one: those starts reach Newton as drawn.  At
    # 10^60, S(b)^3 is near 10^180, whose square would overflow a plain
    # norm: the starts are scaled, and all converge (from the drawn starts
    # all 60 diverge).  The scaling warns of nothing; the 10^120 run stops
    # before its Newton steps, and its C overflows before the draw
    handed = []
    gauss_newton, cubic_jacobian = extend._gauss_newton, extend._cubic_jacobian

    def recording(bvec, *args):
        handed.append(bvec.copy())
        if len(handed) == 3:
            raise _StopBeforeNewton
        gauss_newton(bvec, *args)

    def overflowing_jacobian(e):
        with np.errstate(over="ignore", invalid="ignore"):
            return cubic_jacobian(e)

    def drawn(starts, d, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal((starts, d)) + 1j * rng.standard_normal((starts, d))

    zero = [CMatrix([[0] * 3] * 3, 1)] * 3
    one = CMatrix([[1]], 1)
    large, huge = (extend._basis_matrices(CMatrix([[10**k]], 1), one) for k in (60, 120))
    monkeypatch.setattr(extend, "_gauss_newton", recording)
    with np.errstate(all="raise"):
        report = extend.numeric_cubic_oracle(zero, starts=40, seed=2)
        assert (report.converged, report.diverged, report.unconverged) == (0, 0, 40)
        report = extend.numeric_cubic_oracle(large, starts=60, seed=1)
        assert report.converged == 60
        monkeypatch.setattr(extend, "_cubic_jacobian", overflowing_jacobian)
        with pytest.raises(_StopBeforeNewton):
            extend.numeric_cubic_oracle(huge, starts=60, seed=1)
    assert np.array_equal(handed[0], drawn(40, 3, 2))
    assert not np.array_equal(handed[1], drawn(60, 1, 1))
    assert np.array_equal(handed[2], drawn(60, 1, 1))


def test_every_counterexample6_cluster_is_well_sampled():
    # each of the six basins holds at least 15 of 2000 scaled starts at
    # these seeds (at least 23 measured); from the drawn starts the
    # smallest held 2, 9 and 5
    rep = catalog.counterexample6()
    (a, b), _ = common_field(rep.A, rep.B, extra=3)
    basis = extend._basis_matrices(a, b)
    cands = extend.default_polynomial_candidates(basis)
    for seed in (0, 49, 54):
        report = extend.numeric_cubic_oracle(
            basis, starts=2000, seed=seed, exact_candidates=cands
        )
        assert len(report.clusters) == 6, seed
        assert {c.nearest_candidate for c in report.clusters} == set(range(6)), seed
        for c in report.clusters:
            assert c.nearest_distance <= report.cluster_radius, seed
            assert c.size >= 15, (seed, c.size)


def test_start_counts_partition_the_starts():
    one = CMatrix([[1]], 1)
    report = extend.numeric_cubic_oracle(extend._basis_matrices(one, one), starts=60, seed=1)
    assert (report.converged, report.diverged, report.unconverged) == (60, 0, 0)
    # S^3 overflows at every start: each residual is non-finite at once
    huge = CMatrix([[10**120]], 1)
    with np.errstate(over="ignore", invalid="ignore"):
        report = extend.numeric_cubic_oracle(
            extend._basis_matrices(huge, one), starts=60, seed=1
        )
    assert (report.converged, report.diverged, report.unconverged) == (0, 60, 0)
    assert report.clusters == []
    rep = catalog.tw3(1, 1, 1)
    report = extend.numeric_cubic_oracle(
        extend._basis_matrices(rep.A, rep.B), starts=300, seed=5
    )
    assert report.converged and report.unconverged
    assert report.converged + report.diverged + report.unconverged == 300


def test_certify_finds_all_six_candidates():
    # at seed 0 the smallest of the six basins holds 30 of the 2000 starts
    rep = catalog.counterexample6()
    report = extend.certify_no_extension(rep.A, rep.B, starts=2000, seed=0)
    assert {c.nearest_candidate for c in report.oracle.clusters} == set(range(6))
    oracle = report.oracle
    assert oracle.converged + oracle.diverged + oracle.unconverged == 2000


def test_certify_runs_the_public_oracle(monkeypatch):
    rep = catalog.counterexample6()
    oracle = extend.numeric_cubic_oracle
    calls, returned = [], []

    def recording(*args, **kwargs):
        calls.append(inspect.signature(oracle).bind(*args, **kwargs).arguments)
        returned.append(oracle(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(extend, "numeric_cubic_oracle", recording)
    report = extend.certify_no_extension(
        rep.A, rep.B, starts=50, tol=1e-10, cluster_radius=1e-7, seed=3
    )
    (a, b), _ = common_field(rep.A, rep.B, extra=3)
    basis = extend._basis_matrices(a, b)
    cands = extend.default_polynomial_candidates(basis)
    assert len(cands) == 6
    assert calls == [
        {
            "basis": basis,
            "starts": 50,
            "tol": 1e-10,
            "cluster_radius": 1e-7,
            "seed": 3,
            "exact_candidates": cands,
        }
    ]
    assert report.oracle is returned[0]


def test_no_converged_start_gives_honest_verdict():
    rep = catalog.counterexample6()
    report = extend.certify_no_extension(rep.A, rep.B, starts=1, seed=0)
    assert report.oracle.converged == 0
    assert report.oracle.clusters == []
    assert report.oracle_exhaustive is False
    assert report.verdict == "inconclusive: no oracle start converged (0 of 1 starts)"


def _binomial_pair_9():
    lams = [2, 3, 5, 7, 1]
    return catalog.binomial_pair(lams + [Fraction(1, x) for x in reversed(lams[:4])], 1)


@pytest.mark.parametrize(
    "options, error",
    [
        ({"starts": 0}, InvalidOption),
        ({"starts": -5}, InvalidOption),
        ({"tol": 0.0}, InvalidOption),
        ({"tol": float("nan")}, InvalidOption),
        ({"cluster_radius": float("inf")}, InvalidOption),
        ({"seed": -1}, InvalidOption),
        ({"dim": 9}, DimMismatch),
    ],
    ids=["starts-0", "starts-neg", "tol-0", "tol-nan", "radius-inf", "seed-neg", "dim-9"],
)
def test_certify_refuses_bad_input_before_exact_work(monkeypatch, options, error):
    options = dict(options)
    if options.pop("dim", None):
        a, b = _binomial_pair_9()
    else:
        rep = catalog.counterexample6()
        a, b = rep.A, rep.B

    def exact_work(*args, **kwargs):
        raise AssertionError("exact work before the options were checked")

    monkeypatch.setattr(extend, "default_polynomial_candidates", exact_work)
    monkeypatch.setattr(extend, "_basis_matrices", exact_work)
    monkeypatch.setattr(CMatrix, "is_cyclic", exact_work)
    with pytest.raises(error):
        extend.certify_no_extension(a, b, **options)
    with pytest.raises(error):
        extend.numeric_cubic_oracle([a] * a.dim, **options)


def test_certify_builds_the_basis_once_and_hands_it_to_the_oracle(monkeypatch):
    rep = catalog.counterexample6()
    build, oracle = extend._basis_matrices, extend.numeric_cubic_oracle
    built, handed = [], []

    def recording_build(a, b):
        built.append(build(a, b))
        return built[-1]

    def recording_oracle(basis, *args, **kwargs):
        handed.append(basis)
        return oracle(basis, *args, **kwargs)

    monkeypatch.setattr(extend, "_basis_matrices", recording_build)
    monkeypatch.setattr(extend, "numeric_cubic_oracle", recording_oracle)
    extend.certify_no_extension(rep.A, rep.B, starts=20, seed=0)
    assert len(built) == 1
    assert len(handed) == 1 and handed[0] is built[0]
