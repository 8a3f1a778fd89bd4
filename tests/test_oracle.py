"""Numeric cubic oracle: convergence, clustering, determinism."""

import numpy as np
import pytest

from loopbraid import catalog, extend
from loopbraid.linalg import CMatrix


def test_scalar_case_finds_cube_roots_of_unity():
    one = CMatrix([[1]], 1)
    report = extend.numeric_cubic_oracle(one, one, starts=60, seed=1)
    assert report.converged > 0
    assert len(report.clusters) == 3
    for c in report.clusters:
        assert abs(c.centroid[0] ** 3 - 1) < 1e-7
        assert c.max_residual < report.tol


def test_tw3_clusters_contain_standard_solutions():
    rep = catalog.tw3(1, 2, 3)
    report = extend.numeric_cubic_oracle(rep.A, rep.B, starts=2000, seed=2)
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
    r1 = extend.numeric_cubic_oracle(rep.A, rep.B, starts=200, seed=9)
    r2 = extend.numeric_cubic_oracle(rep.A, rep.B, starts=200, seed=9)
    assert r1.converged == r2.converged
    assert len(r1.clusters) == len(r2.clusters)
    for c1, c2 in zip(r1.clusters, r2.clusters):
        assert c1.size == c2.size
        assert c1.centroid == c2.centroid


def test_oracle_matches_exact_candidates():
    rep = catalog.counterexample6()
    cands = extend.default_polynomial_candidates(rep.A, rep.B)
    assert len(cands) == 6
    report = extend.numeric_cubic_oracle(
        rep.A, rep.B, starts=500, seed=4, exact_candidates=cands
    )
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
    jt = extend._cubic_jacobian(e)(bvec)
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
        jt = extend._cubic_jacobian(e)(bvec)
        ref = _einsum_jacobian_t(e, s)
        assert np.abs(jt - ref).max() <= 1e-14 * np.abs(ref).max()
        # S(b)^3 is homogeneous of degree 3 in b: sum_k b_k dF/db_k = 3 S^3.
        # A full contraction with b cannot see which factor E_k sits in, so
        # the einsum comparison above is what pins the three terms.
        cube = (s @ s @ s).reshape(8, d * d)
        euler = np.einsum("nk,nkx->nx", bvec, jt)
        assert np.abs(euler - 3 * cube).max() <= 1e-14 * np.abs(cube).max()


def test_oracle_report_independent_of_block_size(monkeypatch):
    rep = catalog.tw3(1, 1, 1)
    default = extend.numeric_cubic_oracle(rep.A, rep.B, starts=300, seed=5)
    assert default.converged > 0
    # blocks of 2 leave lone starts, which numpy would send to gemv
    for size in (7, 2):
        monkeypatch.setattr(extend, "_ORACLE_BLOCK", size)
        blocked = extend.numeric_cubic_oracle(rep.A, rep.B, starts=300, seed=5)
        assert blocked == default


def test_start_counts_partition_the_starts():
    one = CMatrix([[1]], 1)
    report = extend.numeric_cubic_oracle(one, one, starts=60, seed=1)
    assert (report.converged, report.diverged, report.unconverged) == (60, 0, 0)
    # S^3 overflows at every start: each residual is non-finite at once
    huge = CMatrix([[10**120]], 1)
    with np.errstate(over="ignore", invalid="ignore"):
        report = extend.numeric_cubic_oracle(huge, one, starts=60, seed=1)
    assert (report.converged, report.diverged, report.unconverged) == (0, 60, 0)
    assert report.clusters == []
    rep = catalog.tw3(1, 1, 1)
    report = extend.numeric_cubic_oracle(rep.A, rep.B, starts=300, seed=5)
    assert report.converged and report.unconverged
    assert report.converged + report.diverged + report.unconverged == 300


def test_certify_finds_all_six_candidates():
    # the two smallest of the six basins hold a few starts each at 2000 starts
    rep = catalog.counterexample6()
    report = extend.certify_no_extension(rep.A, rep.B, starts=2000, seed=0)
    assert {c.nearest_candidate for c in report.oracle.clusters} == set(range(6))
    oracle = report.oracle
    assert oracle.converged + oracle.diverged + oracle.unconverged == 2000


def test_no_converged_start_gives_honest_verdict():
    rep = catalog.counterexample6()
    report = extend.certify_no_extension(rep.A, rep.B, starts=1, seed=0)
    assert report.oracle.converged == 0
    assert report.oracle.clusters == []
    assert report.oracle_exhaustive is False
    assert report.verdict == "inconclusive: no oracle start converged (0 of 1 starts)"

