import numpy as np
import pytest

from pencildae import (ContourSolveFailedError, IndexTooHighError, MatrixPencil,
                       NotRegularError, PencilIndex, PoleOnContourError, classify_index,
                       contour_radius, projectors_algebraic, projectors_residue,
                       regularity_probe, validate_decomposition)
from pencildae.pencil import _eigenvalue_moduli, _probe_points, _radius

from conftest import random_conditioned, random_index1_pencil, weierstrass_pencil
from reference_residue import reference_moduli, reference_residue


def identity_pencil(n=2):
    return MatrixPencil(a=np.eye(n), b=np.zeros((n, n)))


def diag_index1_pencil():
    return MatrixPencil(a=np.diag([1.0, 0.0]), b=np.eye(2))


def nilpotent_pencil():
    return MatrixPencil(a=np.array([[0.0, 1.0], [0.0, 0.0]]), b=np.eye(2))


class TestMatrixPencil:
    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            MatrixPencil(a=np.ones((2, 3)), b=np.ones((2, 3)))

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError):
            MatrixPencil(a=np.eye(2), b=np.eye(3))

    def test_rejects_non_finite(self):
        a = np.eye(2)
        a_bad = a.copy()
        a_bad[0, 0] = np.nan
        with pytest.raises(ValueError):
            MatrixPencil(a=a_bad, b=np.eye(2))

    def test_arrays_read_only(self):
        p = identity_pencil()
        with pytest.raises(ValueError):
            p.a[0, 0] = 5.0


class TestRegularityProbe:
    def test_identity_pencil_regular(self):
        lam = regularity_probe(identity_pencil(), sample_count=8, seed=1)
        assert lam != 0.0
        assert abs(np.linalg.det(lam * np.eye(2))) > 0.0

    def test_rank_deficient_rows_not_regular(self):
        # det(lambda*diag(1,0) + 0) == 0 for every lambda
        pencil = MatrixPencil(a=np.diag([1.0, 0.0]), b=np.zeros((2, 2)))
        with pytest.raises(NotRegularError):
            regularity_probe(pencil, sample_count=16, seed=0)

    def test_circuit_pencil_regular(self, sec5_preset):
        lam = regularity_probe(sec5_preset.dae.pencil, sample_count=16, seed=0)
        assert np.isfinite(lam)

    def test_deterministic_given_seed(self, sec5_preset):
        a = regularity_probe(sec5_preset.dae.pencil, sample_count=16, seed=7)
        b = regularity_probe(sec5_preset.dae.pencil, sample_count=16, seed=7)
        assert a == b

    @pytest.mark.parametrize("seed", [0, 1, 7, 2 ** 70 + 3])
    def test_probe_points_distinct_and_in_range(self, sec5_preset, seed):
        points = _probe_points(32, seed)
        np.testing.assert_array_equal(points, _probe_points(32, seed))
        assert len(set(points.tolist())) == 32
        assert np.all((points >= -2.0) & (points < 2.0))
        # evenly spread: the golden-ratio sequence's circular gaps differ by at most phi^2
        gaps = np.diff(np.r_[np.sort(points), points.min() + 4.0])
        assert gaps.max() <= 2.62 * gaps.min()
        # the probe returns one of them, scaled into [-2, 2) * (1 + ||B||) / (1 + ||A||)
        pen = sec5_preset.dae.pencil
        scale = (1.0 + np.linalg.norm(pen.b, 2)) / (1.0 + np.linalg.norm(pen.a, 2))
        lam = regularity_probe(pen, sample_count=32, seed=seed)
        assert lam in (points * scale).tolist() and -2.0 * scale <= lam < 2.0 * scale

    def test_seeds_give_disjoint_points(self):
        sets = [set(_probe_points(32, seed).tolist()) for seed in range(10)]
        for i, points in enumerate(sets):
            for other in sets[i + 1:]:
                assert points.isdisjoint(other)


class TestClassifyIndex:
    def test_invertible_a_is_index0(self):
        assert classify_index(MatrixPencil(a=np.eye(2), b=np.ones((2, 2)))) \
            is PencilIndex.INDEX0

    def test_diag_pencil_is_index1(self):
        # kernel(A) = span(e2), {x : Bx in range(A)} = span(e1): direct sum
        assert classify_index(diag_index1_pencil()) is PencilIndex.INDEX1

    def test_nilpotent_block_is_higher(self):
        # kernel(A) = span(e1) = {x : x in range(A)}: intersection nontrivial
        assert classify_index(nilpotent_pencil()) is PencilIndex.INDEX_HIGHER

    def test_circuit_is_index1(self, sec5_preset):
        assert classify_index(sec5_preset.dae.pencil) is PencilIndex.INDEX1

    def test_invariant_under_equivalence_transforms(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            pencil, k, _, _ = random_index1_pencil(rng)
            expected = PencilIndex.INDEX0 if k == 0 else PencilIndex.INDEX1
            assert classify_index(pencil) is expected
            u = random_conditioned(pencil.n, rng)
            v = random_conditioned(pencil.n, rng)
            transformed = MatrixPencil(a=u @ pencil.a @ v, b=u @ pencil.b @ v)
            assert classify_index(transformed) is expected


class TestProjectorsAlgebraic:
    def test_index0_trivial(self):
        pencil = MatrixPencil(a=np.eye(2), b=np.array([[1.0, 2.0], [3.0, 4.0]]))
        d = projectors_algebraic(pencil)
        assert d.index is PencilIndex.INDEX0
        np.testing.assert_allclose(d.p1, np.eye(2))
        np.testing.assert_allclose(d.p2, 0.0)
        np.testing.assert_allclose(d.q2, 0.0)
        np.testing.assert_allclose(d.g, pencil.a)
        assert d.x2_basis.shape == (2, 0)

    def test_diag_pencil_closed_form(self):
        d = projectors_algebraic(diag_index1_pencil())
        np.testing.assert_allclose(d.p1, np.diag([1.0, 0.0]), atol=1e-13)
        np.testing.assert_allclose(d.p2, np.diag([0.0, 1.0]), atol=1e-13)
        np.testing.assert_allclose(d.q1, np.diag([1.0, 0.0]), atol=1e-13)
        np.testing.assert_allclose(d.q2, np.diag([0.0, 1.0]), atol=1e-13)
        np.testing.assert_allclose(d.g, np.eye(2), atol=1e-13)

    def test_circuit_closed_form(self, sec5_preset, sec5_decomp):
        # oblique projectors of the circuit pencil, derived by hand from
        # kernel(A) = span(e3) and the constraint row x2 + r*x3 = 0
        r = 2.0
        p2 = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0 / r, 1.0]])
        q2 = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0 / r], [0.0, 0.0, 1.0]])
        np.testing.assert_allclose(sec5_decomp.p2, p2, atol=1e-12)
        np.testing.assert_allclose(sec5_decomp.q2, q2, atol=1e-12)
        # det G = L*C*r in computation units (uH, uF)
        l_c, c_c = 5e-4 * 1e6, 5e-7 * 1e6
        assert np.linalg.det(sec5_decomp.g) == pytest.approx(l_c * c_c * r, rel=1e-10)

    def test_rank_of_p2(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            pencil, k, _, _ = random_index1_pencil(rng)
            d = projectors_algebraic(pencil)
            rank_a = np.linalg.matrix_rank(pencil.a)
            rank_p2 = np.linalg.matrix_rank(d.p2)
            assert rank_p2 == pencil.n - rank_a == k

    def test_refuses_higher_index(self):
        with pytest.raises(IndexTooHighError):
            projectors_algebraic(nilpotent_pencil())

    def test_matches_block_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            pencil, k, p2_exact, q2_exact = random_index1_pencil(rng)
            d = projectors_algebraic(pencil)
            scale = pencil.norm_scale()
            assert np.abs(d.p2 - p2_exact).max() <= 1e-10 * scale
            assert np.abs(d.q2 - q2_exact).max() <= 1e-10 * scale

    def test_x2_basis_in_kernel(self, sec5_preset, sec5_decomp):
        assert np.abs(sec5_preset.dae.pencil.a @ sec5_decomp.x2_basis).max() < 1e-12
        np.testing.assert_allclose(sec5_decomp.p2 @ sec5_decomp.x2_basis,
                                   sec5_decomp.x2_basis, atol=1e-12)


class TestProjectorsResidue:
    def test_identity_pencil(self):
        p1, q1 = projectors_residue(identity_pencil(), radius=1.0, node_count=16)
        np.testing.assert_allclose(p1, np.eye(2), atol=1e-13)
        np.testing.assert_allclose(q1, np.eye(2), atol=1e-13)

    def test_default_radius_diag_pencil(self):
        # the only nonzero mu-root of det(A + mu*B) is mu = -1
        assert contour_radius(diag_index1_pencil()) == pytest.approx(0.5)

    def test_diag_pencil_quadrature(self):
        # 32 trapezoid nodes at radius/pole ratio 1/2 leave an error of
        # about 0.5**32 ~ 2.3e-10, decaying spectrally with node_count
        p1, _ = projectors_residue(diag_index1_pencil(), radius=0.5, node_count=32)
        assert np.abs(p1 - np.diag([1.0, 0.0])).max() <= 1e-9
        p1, _ = projectors_residue(diag_index1_pencil(), radius=0.5, node_count=64)
        assert np.abs(p1 - np.diag([1.0, 0.0])).max() <= 1e-12

    def test_circuit_matches_algebraic(self, sec5_preset, sec5_decomp):
        p1, q1 = projectors_residue(sec5_preset.dae.pencil, node_count=64)
        assert np.abs(p1 - sec5_decomp.p1).max() <= 1e-8
        assert np.abs(q1 - sec5_decomp.q1).max() <= 1e-8

    def test_pole_on_contour_detected(self):
        with pytest.raises(PoleOnContourError):
            projectors_residue(diag_index1_pencil(), radius=1.0, node_count=32)

    def test_rejects_small_node_count(self):
        with pytest.raises(ValueError):
            projectors_residue(identity_pencil(), radius=1.0, node_count=4)

    def test_rejects_node_count_above_the_cap(self):
        # refused before the first node, not after 10**18 of them
        from pencildae.pencil import MAX_NODE_COUNT
        with pytest.raises(ValueError, match="between 8 and 65536"):
            projectors_residue(identity_pencil(), radius=1.0, node_count=10**18)
        assert MAX_NODE_COUNT == 2 ** 16


    def test_quadrature_error_estimates_the_half_rule(self):
        # |S_32 - S_16| is the 16-node rule's error, 0.5**16, to within the
        # 32-node rule's own, 0.5**32
        exact = np.diag([1.0, 0.0])
        res = projectors_residue(diag_index1_pencil(), radius=0.5, node_count=32)
        p1_half, _ = projectors_residue(diag_index1_pencil(), radius=0.5, node_count=16)
        half_error = np.abs(p1_half - exact).max()
        assert half_error == pytest.approx(0.5 ** 16, rel=1e-3)
        assert abs(res.quadrature_error - half_error) <= 1e-9
        assert np.abs(res[0] - exact).max() <= 1e-9 < res.quadrature_error

    def test_stacks_of_nodes_add_up(self, monkeypatch, sec5_preset):
        # nodes inverted two at a time give the sums of one stack of all 64
        pen = sec5_preset.dae.pencil
        whole = projectors_residue(pen)
        monkeypatch.setattr("pencildae.pencil._STACK_ENTRIES", 2 * pen.n ** 2)
        split = projectors_residue(pen)
        for got, want in zip(split, whole):
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
        assert split.quadrature_error == pytest.approx(whole.quadrature_error, rel=1e-6)

    def test_overflowing_resolvent_fails_on_the_contour(self):
        pencil = MatrixPencil(a=1e-310 * np.eye(2), b=np.zeros((2, 2)))
        with pytest.raises(ContourSolveFailedError, match="non-finite at node 0"):
            projectors_residue(pencil)


def outcome(fn, *args, **kwargs):
    """The result of a call, or the type of the exception it raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the type is what is compared
        return type(exc)


NILPOTENT = np.diag([1.0, 1.0], 1)
INFINITE_ROOT_PENCILS = [
    MatrixPencil(a=2.0 * np.eye(3), b=np.zeros((3, 3))),        # B = 0: no finite root
    MatrixPencil(a=3.7 * np.eye(3), b=np.diag([0.0, 1.0, 0.0])),  # one root, two infinite
    MatrixPencil(a=np.eye(2), b=np.array([[0.0, 1.0], [0.0, 0.0]])),
    MatrixPencil(a=np.eye(3), b=NILPOTENT),
    MatrixPencil(a=np.diag([1.0, 0.0, 1.0]), b=np.eye(3) + NILPOTENT),
]
SINGULAR_PENCILS = [
    MatrixPencil(a=np.diag([1.0, 0.0]), b=np.zeros((2, 2))),
    MatrixPencil(a=np.diag([1.0, 0.0]), b=np.diag([2.0, 0.0])),
    MatrixPencil(a=np.ones((2, 2)), b=3.0 * np.ones((2, 2))),
    MatrixPencil(a=np.outer([1.0, 2.0, 3.0], [1.0, 0.0, 1.0]),
                 b=np.outer([1.0, 2.0, 3.0], [0.0, 1.0, 1.0])),
]


def reference_pencils():
    rng = np.random.default_rng(8)
    pencils = [random_index1_pencil(rng)[0] for _ in range(400)]
    pencils += [weierstrass_pencil(rng, n, k)
                for _ in range(6) for n in range(2, 9) for k in range(n)]
    return pencils + INFINITE_ROOT_PENCILS


class TestResidueAgainstReference:
    """The numpy eigenvalue moduli and the stacked resolvents against QZ and
    the node-by-node loop of ``reference_residue``."""

    @pytest.fixture(scope="class")
    def pencils(self):
        pencils = reference_pencils()
        assert len(pencils) >= 600
        return pencils

    def test_default_radius_matches_qz(self, pencils):
        for pencil in pencils:
            want = _radius(reference_moduli(pencil), 0.5)
            assert abs(contour_radius(pencil) - want) <= 1e-10 * want

    def test_same_pole_on_contour_verdicts(self, pencils):
        # a contour through any nonzero root is refused by both
        for pencil in pencils:
            mags = reference_moduli(pencil)
            for radius in mags[mags > 1e-9]:
                assert outcome(projectors_residue, pencil, radius=radius) is PoleOnContourError
                assert outcome(reference_residue, pencil, radius=radius) is PoleOnContourError

    def test_stacked_projectors_match_the_loop(self, pencils):
        # on the default contour, which neither refuses
        for pencil in pencils:
            got, want = projectors_residue(pencil), reference_residue(pencil)
            scale = pencil.norm_scale()
            for g, w in zip(got, want):
                assert np.abs(g - w).max() <= 1e-13 * scale

    def test_singular_pencils_fail_alike(self):
        # the shift search finds no regular point, yet neither route raises
        # NotRegularError: the resolvent fails on the contour
        for pencil in SINGULAR_PENCILS:
            with pytest.raises(ContourSolveFailedError, match="singular at node 0"):
                projectors_residue(pencil)
            assert outcome(reference_residue, pencil) is ContourSolveFailedError

    def test_rotated_nilpotent_b(self):
        # B = Q J Q^T with J a 3x3 Jordan block: det(I + mu*B) = 1 has no finite
        # root, but the defective infinite one is perturbed by about eps**(1/3)
        # into spurious finite moduli, by QZ (~9e7) as by the shift (~4e5); on
        # either contour the resolvent I - mu B + mu^2 B^2 loses every digit
        q, _ = np.linalg.qr(np.random.default_rng(1).standard_normal((3, 3)))
        pencil = MatrixPencil(a=np.eye(3), b=q @ NILPOTENT @ q.T)
        assert contour_radius(pencil) > 1e4 and _radius(reference_moduli(pencil), 0.5) > 1e4
        assert outcome(projectors_residue, pencil) is ContourSolveFailedError
        assert outcome(reference_residue, pencil) is ContourSolveFailedError

    def test_infinite_root_that_qz_returns_finite(self):
        # det(A + mu*B) = mu*(1e-14 - 2): B is singular, so the second root is
        # infinite; QZ returns it as -9.9e15, and the resolvent cannot be
        # evaluated on a contour of radius 5e15
        pencil = MatrixPencil(a=np.array([[0.0, 2.0], [0.0, 1e-14]]),
                              b=np.array([[1.0, 3.0], [1.0, 3.0]]))
        assert reference_moduli(pencil).max() > 1e15
        assert outcome(reference_residue, pencil) is ContourSolveFailedError
        assert contour_radius(pencil) == 1.0
        p1, q1 = projectors_residue(pencil)
        d = projectors_algebraic(pencil)
        assert max(np.abs(p1 - d.p1).max(), np.abs(q1 - d.q1).max()) <= 1e-13

    def test_clustered_small_roots(self):
        # ||B|| = 1e14 puts the shift near 1e13 while the three roots of
        # det(A + mu*B) cluster at |mu| = 2.7144e-5 (to 2e-5 relative); the
        # moduli come from S^-1 B there, where S^-1 A would smear the cluster
        a = [[1.0, -1.0, -1.0], [2.0, 0.0, 1e-14], [-1.0, 2.0, 0.0]]
        b = [[1e14, 2.0, 0.0], [1e-14, 2.0, 0.0], [0.0, 2.0, 1.0]]
        pencil = MatrixPencil(a=np.array(a), b=np.array(b))
        # the roots of the cubic det(A + mu*B), found in 60-digit arithmetic
        roots = (2.71439919629158e-5, 2.71439919629158e-5, 2.71445445757657e-5)
        np.testing.assert_allclose(np.sort(_eigenvalue_moduli(pencil)), roots, rtol=1e-12)


class TestValidateDecomposition:
    def test_identity_pencil_all_zero(self):
        pencil = identity_pencil()
        report = validate_decomposition(pencil, projectors_algebraic(pencil), tol=1e-12)
        assert report.passed
        assert report.max_residual == 0.0

    def test_circuit_passes(self, sec5_preset, sec5_decomp):
        tol = 1e-10 * sec5_preset.dae.pencil.norm_scale()
        report = validate_decomposition(sec5_preset.dae.pencil, sec5_decomp, tol)
        assert report.passed

    def test_corrupted_p2_flagged(self, sec5_preset, sec5_decomp):
        from pencildae import SpectralDecomposition
        p2_bad = sec5_decomp.p2.copy()
        p2_bad[0, 1] += 1e-3
        corrupted = SpectralDecomposition(
            p1=sec5_decomp.p1, p2=p2_bad, q1=sec5_decomp.q1, q2=sec5_decomp.q2,
            g=sec5_decomp.g, g_inv=sec5_decomp.g_inv, index=sec5_decomp.index,
            x2_basis=sec5_decomp.x2_basis)
        report = validate_decomposition(sec5_preset.dae.pencil, corrupted, tol=1e-10)
        assert not report.passed
        assert "P2^2=P2" in report.failing()

    def test_json_round_trip(self, sec5_preset, sec5_decomp):
        import json
        report = validate_decomposition(sec5_preset.dae.pencil, sec5_decomp, 1e-9)
        payload = json.loads(json.dumps(report.to_json()))
        assert payload["passed"] is True
        assert "P1+P2=I" in payload["identities"]


def test_identity_suite_on_random_pencils():
    rng = np.random.default_rng(2024)
    for _ in range(25):
        pencil, _, _, _ = random_index1_pencil(rng)
        d = projectors_algebraic(pencil)
        tol = 1e-10 * pencil.norm_scale()
        report = validate_decomposition(pencil, d, tol)
        assert report.passed, report.failing()
        p1, q1 = projectors_residue(pencil, node_count=64)
        assert np.abs(p1 - d.p1).max() <= 1e-8
        assert np.abs(q1 - d.q1).max() <= 1e-8
