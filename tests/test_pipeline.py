import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from qstein import opalg, pipeline, rand, symmetry
from qstein.entropy import binary_entropy, relative_entropy
from qstein.errors import (CertificateFailed, ConstructionFailed,
                           DimensionCap, NegativeEigenvalue, PremiseFailed,
                           PremiseOutOfInterval)
from qstein.freesets import DiagonalFamily, SingletonIIDFamily
from qstein.opalg import DensityMatrix, HermitianOperator, SystemShape
from qstein.optim import SolverSettings, min_positive_part, rate_threshold

from oracles import ray_step2_reference

SET = SolverSettings(max_iters=256, tol=1e-7, seed=0)
H08 = binary_entropy(0.8)


def coherence_qubit(p=0.8):
    v = np.array([math.sqrt(p), math.sqrt(1 - p)])
    return opalg.density(np.outer(v, v))


class TestSchedule:
    @pytest.mark.parametrize("n,want", [(64, (16, 16)), (8, (4, 2)),
                                        (4, (3, 0)), (6, (4, 1))])
    def test_values(self, n, want):
        s = pipeline.mr_schedule(n)
        assert (s.M, s.R) == want
        assert s.N - s.M >= 2 * s.R

    def test_small_n_rejected(self):
        with pytest.raises(ValueError):
            pipeline.mr_schedule(3)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            pipeline.Schedule(4, 2, 2)

    def test_epsilon_formula(self):
        # direct evaluation at (N=8, M=R=4, y=1, mu=1/2)
        mu, y, N, M, R = 0.5, 1.0, 8, 4, 4
        a = 2.0 * math.sqrt(2.0) / (mu * math.exp(M * R / (2.0 * N)))
        b = 2.0 * math.sqrt(2.0 * R) / N
        want = 2.0 * mu ** 3 / 2.0 ** (y * N) * (a + b)
        got = pipeline.epsilon_schedule(N, M, R, y, mu)
        assert abs(got - want) < 1e-18
        assert abs(got - 2.72e-3) < 5e-6


class TestDominatedState:
    def test_delta_zero(self):
        rng = np.random.default_rng(424)
        rho = rand.random_density(rng, SystemShape((3,)))
        x = HermitianOperator(rho.shape, rho.mat * 1.0)
        zero = HermitianOperator(rho.shape, np.zeros((3, 3)))
        tilde, m_op, m_fid = pipeline.dominated_state(rho, x, zero)
        assert min(m_op, m_fid) >= -1e-10
        assert np.abs(tilde.mat - rho.mat).max() < 1e-9

    def test_commuting_case(self):
        shape = SystemShape((2,))
        rho = opalg.maximally_mixed(shape)
        x = HermitianOperator(shape, 0.5 * np.eye(2))
        delta = HermitianOperator(shape, 0.05 * np.eye(2))
        tilde, m_op, m_fid = pipeline.dominated_state(rho, x, delta)
        assert min(m_op, m_fid) >= -pipeline.DOMINATED_STATE_TOL
        assert opalg.fidelity(tilde, rho) >= 0.9 - 1e-10

    def test_premise_violated(self):
        shape = SystemShape((2,))
        rho = opalg.density(np.diag([1.0, 0.0]))
        x = HermitianOperator(shape, np.diag([0.1, 1.0]))
        delta = HermitianOperator(shape, 0.2 * np.eye(2))
        with pytest.raises(PremiseFailed):
            pipeline.dominated_state(rho, x, delta)


class TestStep1:
    def test_free_state_premise_fails(self):
        free = opalg.density(np.diag([0.5, 0.5]))
        with pytest.raises(PremiseOutOfInterval):
            pipeline.step1(free, 0.5, 4, DiagonalFamily(2, 1), SET)

    def test_rate_too_high_premise_fails(self):
        with pytest.raises(PremiseOutOfInterval):
            pipeline.step1(coherence_qubit(), 5.0, 4, DiagonalFamily(2, 1),
                           SET)

    def test_coherence_instance(self):
        trace = pipeline.step1(coherence_qubit(), H08, 4,
                               DiagonalFamily(2, 1), SET)
        assert 0.7 < trace.mu_N < 0.9
        assert symmetry.is_perm_invariant(trace.sigma_N, 1e-8)
        assert symmetry.is_perm_invariant(trace.rho_N, 1e-8)
        assert trace.all_passed

    def test_step1_checks_each_conclusion_once(self, monkeypatch):
        # the lemma's two conclusions are step 1's: one fidelity, and the
        # value read off the one positive part
        calls = {"fidelity": 0, "positive_part_trace": 0}
        for name in calls:
            def spy(*args, _f=getattr(opalg, name), _name=name):
                calls[_name] += 1
                return _f(*args)
            monkeypatch.setattr(opalg, name, spy)
        trace = pipeline.step1(coherence_qubit(), H08, 4,
                               DiagonalFamily(2, 1), SET)
        assert calls == {"fidelity": 1, "positive_part_trace": 0}
        rows = {c.name: c.margin for c in trace.certificates}
        assert rows["dominated-state construction"] == min(
            rows["step1 operator dominance"], rows["step1 fidelity floor"])


def bell_state():
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return opalg.density(np.outer(v, v))


def qutrit_ray():
    rng = np.random.default_rng(7)
    return rand.random_pure(rng, SystemShape((3,))).density()


BLOCK_CASES = ([(coherence_qubit, H08, N) for N in range(4, 9)]
               + [(bell_state, 0.7, 4), (qutrit_ray, 1.0, 4),
                  (qutrit_ray, 1.0, 5)])


class TestStep1ClassBlock:
    """Step 1 of a pure base runs on the power's T x T class block."""

    @pytest.mark.parametrize("make,y,N", BLOCK_CASES)
    def test_matches_dense_lemma(self, make, y, N):
        # the dense route on the same sigma_N: the twirled minimizer,
        # the dense positive part and ``dominated_state``
        rho = make()
        family = DiagonalFamily(rho.total_dim, 1)
        trace = pipeline.step1(rho, y, N, family, SET)
        power = opalg.Power(rho, N)
        b = rate_threshold(y, N)
        res = min_positive_part(power, b, family.at_copies(N), SET)
        twirled = symmetry.twirl(res.minimizer).mat
        assert np.abs(trace.sigma_N.mat - twirled).max() <= 1e-12
        x = HermitianOperator(power.shape, b * trace.sigma_N.mat)
        delta = opalg.positive_part(HermitianOperator(power.shape,
                                                      power.mat - x.mat))
        rho_N, m_op, m_fid = pipeline.dominated_state(power, x, delta)
        rows = {c.name: c.margin for c in trace.certificates}
        assert abs(trace.mu_N - (1.0 - delta.trace())) <= 1e-12
        assert np.abs(trace.rho_N.mat - rho_N.mat).max() <= 1e-12
        assert abs(rows["step1 fidelity floor"] - m_fid) <= 1e-12
        assert rows["step1 operator dominance"] >= m_op - 1e-12

    def test_zero_weight_class_gives_exact_zero(self):
        # a class with no weight and |T_t| > 1 makes X singular where
        # rho~ vanishes: the operator margin is 0 by structure
        trace = pipeline.step1(coherence_qubit(), H08, 6,
                               DiagonalFamily(2, 1), SET)
        labels, sizes = symmetry.type_classes(2, 6)
        w = np.bincount(labels, weights=np.diag(trace.sigma_N.mat).real)
        assert ((w == 0.0) & (sizes > 1)).any()
        rows = {c.name: c.margin for c in trace.certificates}
        assert rows["step1 operator dominance"] == 0.0

    @pytest.mark.parametrize("N", [4, 7])
    def test_no_wide_eigendecomposition(self, eigh_widths, N):
        # sigma_N and the witness are checked as states on the N + 1 type
        # classes of a qubit, so nothing wider is decomposed
        pipeline.step1(coherence_qubit(), H08, N, DiagonalFamily(2, 1), SET)
        assert eigh_widths and max(eigh_widths) <= N + 1

    def test_run_decomposes_nothing_wider_than_the_conditioned_copies(
            self, eigh_widths):
        # a pure-base chain at N = 8 decomposes nothing 2^N wide: the widest
        # is the 2^(N - M) of the copies left after conditioning
        trace = pipeline.run_direct_part(coherence_qubit(), H08, 8,
                                         DiagonalFamily(2, 1), SET)
        assert max(eigh_widths) <= 2 ** (8 - trace.schedule.M)

    def test_negative_class_weight_raises(self, monkeypatch):
        # sigma_N's state check on its class weights: a weight of -1e-6 on
        # a singleton class, trace kept at 1, is a d^N eigenvalue of -1e-6
        solve = pipeline.min_positive_part
        sizes = symmetry.type_classes(2, 6)[1]
        t = int(np.flatnonzero(sizes == 1)[-1])

        def planted(*args):
            res = solve(*args)
            w = np.diag(res.weights).copy()
            w[np.argmax(w)] += w[t] + 1e-6
            w[t] = -1e-6
            return replace(res, weights=np.diag(w))
        monkeypatch.setattr(pipeline, "min_positive_part", planted)
        with pytest.raises(NegativeEigenvalue,
                           match="density matrix has eigenvalue -1.000e-06"):
            pipeline.step1(coherence_qubit(), H08, 6, DiagonalFamily(2, 1),
                           SET)


def synthetic_iid_trace(p=0.8, N=4, y=1.2):
    """Trace where rho_N is exactly IID; the chain collapses."""
    rho = coherence_qubit(p)
    fam = DiagonalFamily(2, 1)
    power = opalg.tensor_power(rho, N)
    sigma = fam.at_copies(N).full_rank_witness()
    # mu chosen so the step-1 dominance holds for the witness
    lam = float(np.linalg.eigvalsh(
        np.linalg.inv(opalg.sqrt_psd(sigma.mat) + 0j)
        @ power.mat @ np.linalg.inv(opalg.sqrt_psd(sigma.mat)))[-1])
    mu = min(0.9, 2.0 ** (y * N) / lam * 0.9)
    trace = pipeline.PipelineTrace(
        rho=rho, y=y, N=N, family=fam, mu_N=mu,
        sigma_N=DensityMatrix(sigma.shape, sigma.mat),
        rho_N=DensityMatrix(power.shape, power.mat))
    return trace


class TestStep2:
    def test_iid_synthetic_chain_collapses(self):
        trace = synthetic_iid_trace()
        sched = pipeline.mr_schedule(4)
        pipeline.step2(trace, sched)
        assert trace.all_passed
        final = [c for c in trace.certificates
                 if c.name == "assembled power-state dominance"][0]
        assert final.margin > 1.0  # large margin in the collapsed case

    def test_epsilon_matches_formula(self):
        trace = pipeline.step1(coherence_qubit(), H08, 5,
                               DiagonalFamily(2, 1), SET)
        sched = pipeline.mr_schedule(5)
        pipeline.step2(trace, sched)
        want = pipeline.epsilon_schedule(5, sched.M, sched.R, H08, trace.mu_N)
        assert abs(trace.eps_N - want) < 1e-15
        assert abs(trace.c_N - trace.eps_N * 2.0 ** (H08 * 5)
                   / (2.0 * trace.mu_N)) < 1e-15

    def test_full_run_n5(self):
        trace = pipeline.run_direct_part(coherence_qubit(), H08, 5,
                                         DiagonalFamily(2, 1), SET)
        assert trace.all_passed
        assert trace.schedule.reduced_copies == 1
        names = [c.name for c in trace.certificates]
        assert "relative-entropy budget" in names
        assert "near-free distance" in names

    def test_reduced_mode_n7(self):
        settings = SolverSettings(max_iters=160, tol=1e-6, seed=0)
        trace = pipeline.run_direct_part(coherence_qubit(), H08, 7,
                                         DiagonalFamily(2, 1), settings)
        assert trace.reduced_mode
        assert trace.all_passed


@pytest.fixture(scope="module")
def ray_traces():
    """Steps 1 and 2 of the coherence pipeline at N = 7 and 8, where step 2
    runs on the ray pair."""
    settings = SolverSettings(max_iters=160, tol=1e-6, seed=0)
    out = {}
    for N in (7, 8):
        trace = pipeline.step1(coherence_qubit(), H08, N,
                               DiagonalFamily(2, 1), settings)
        out[N] = pipeline.step2(trace, pipeline.mr_schedule(N))
    return out


class TestRayPair:
    @pytest.mark.parametrize("N", [7, 8])
    def test_matches_dense_reference(self, ray_traces, N):
        trace = ray_traces[N]
        s = trace.schedule
        q = np.array([math.sqrt(0.8), math.sqrt(0.2)])
        sigma, delta = ray_step2_reference(
            q, trace.rho_N.mat, trace.sigma_N.mat, trace.mu_N, trace.y, N,
            s.M, s.R)
        assert trace.reduced_mode
        assert np.abs(trace.sigma_tilde.mat - sigma).max() <= 1e-12
        assert np.abs(trace.delta_tilde.mat - delta).max() <= 1e-12

    def test_overlap_floor_certified(self, ray_traces):
        trace = ray_traces[7]
        names = [c.name for c in trace.certificates]
        assert "purification overlap floor" in names
        assert "power-state tail bound" not in names
        assert trace.all_passed

    def test_mixed_rho_n_refused(self):
        # a pure base state's rho_N must be a ray; step 1 never builds
        # another, so a hand-built mixed one is refused
        rho = coherence_qubit()
        power = opalg.tensor_power(rho, 7).mat
        mixed = 0.5 * power + 0.5 * np.eye(2 ** 7) / 2 ** 7
        trace = pipeline.PipelineTrace(
            rho=rho, y=H08, N=7, family=DiagonalFamily(2, 1), mu_N=0.5,
            sigma_N=opalg.maximally_mixed(SystemShape((2,) * 7)),
            rho_N=opalg.density(mixed, (2,) * 7))
        with pytest.raises(ConstructionFailed, match="not a ray"):
            pipeline.step2(trace, pipeline.mr_schedule(7))


def nearly_pure_qubit(eps, p=0.8):
    """Eigenvalues (1 - eps, eps), the first on the coherent ray."""
    q = np.array([math.sqrt(p), math.sqrt(1 - p)])
    q_perp = np.array([-math.sqrt(1 - p), math.sqrt(p)])
    return opalg.density((1 - eps) * np.outer(q, q)
                         + eps * np.outer(q_perp, q_perp))


class TestSupportRule:
    """One purity test, ``opalg.support_ray`` on the base state, picks both
    step 2's cap and its pair."""

    def test_eigenvalue_below_cutoff_takes_ray_pair(self):
        # eps is off the support, so the base counts as pure; a purification
        # through sqrt_psd would drop eps and come out short of norm 1
        trace = pipeline.run_direct_part(nearly_pure_qubit(1e-12), H08, 5,
                                         DiagonalFamily(2, 1), SET)
        assert trace.reduced_mode
        assert trace.all_passed

    def test_eigenvalue_above_cutoff_refused_before_step1(self, monkeypatch):
        # a mixed base at N = 7 needs (d^2)^N = 16384 > 4096
        def no_solve(*args, **kwargs):
            raise AssertionError("step 1 ran before step 2's cap")
        monkeypatch.setattr(pipeline, "min_positive_part", no_solve)
        with pytest.raises(DimensionCap, match="purified dimension 16384"):
            pipeline.run_direct_part(nearly_pure_qubit(5e-11), H08, 7,
                                     DiagonalFamily(2, 1), SET)


# certificates.csv of the mixed qubit below at N = 5, y = 0.1: the rows of
# the purified route, which no pure-base pipeline runs
MIXED_N5_ROWS = [
    ("dominated-state construction", 6.72092537159e-06, 1e-09),
    ("step1 operator dominance", 6.72092537159e-06, 1e-08),
    ("step1 fidelity floor", 0.243024819254, 1e-08),
    ("purification overlap floor", 0.243024819254, 1e-08),
    ("conditioned-state dominance", -9.44252458874e-18, 1e-09),
    ("tail-truncation distance bound", 2.08571558548, 1e-08),
    ("conditioned-to-truncated dominance", -1.8057764772e-18, 1e-08),
    ("power-state tail bound", 6.66893778623e-15, 1e-08),
    ("assembled power-state dominance", 1973.16425617, 1e-08),
    ("mixing-weight decay", 0.556739793564, 1e-12),
    ("relative-entropy budget", 12.3358937209, 1e-08),
    ("near-free distance", 1.87831020271, 1e-06),
]


def test_mixed_base_runs_purified_route(tmp_path):
    rho = opalg.density(np.array([[0.7, 0.2], [0.2, 0.3]]))
    trace = pipeline.run_direct_part(rho, 0.1, 5, DiagonalFamily(2, 1), SET)
    assert not trace.reduced_mode
    pipeline.save_trace(trace, str(tmp_path))
    with open(tmp_path / "certificates.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["name"] for r in rows] == [n for n, _, _ in MIXED_N5_ROWS]
    assert all(r["pass"] == "true" for r in rows)
    for row, (_, margin, tol) in zip(rows, MIXED_N5_ROWS):
        assert float(row["tolerance"]) == tol
        assert math.isclose(float(row["margin"]), margin, rel_tol=1e-9,
                            abs_tol=1e-12), row["name"]


class TestRelentCertificate:
    def test_iid_additivity_case(self):
        trace = synthetic_iid_trace()
        sched = pipeline.mr_schedule(4)
        pipeline.step2(trace, sched)
        cert = [c for c in trace.certificates
                if c.name == "relative-entropy budget"]
        if not cert:
            cert = [pipeline.relent_bound_certificate(trace, sched)]
        assert cert[0].passed

    def test_corrupted_sigma_tilde_fails(self):
        trace = pipeline.step1(coherence_qubit(), H08, 4,
                               DiagonalFamily(2, 1), SET)
        sched = pipeline.mr_schedule(4)
        pipeline.step2(trace, sched)
        # shrink the support of sigma_tilde: relative entropy diverges
        n_red = sched.reduced_copies
        trace.sigma_tilde = opalg.density(np.diag([1.0, 0.0]),
                                          (2,) * n_red)
        with pytest.raises(CertificateFailed):
            pipeline.relent_bound_certificate(trace, sched)


class TestAsymFreeCertificate:
    def test_free_marginal_construction(self):
        trace = pipeline.run_direct_part(coherence_qubit(), H08, 5,
                                         DiagonalFamily(2, 1), SET)
        cert = [c for c in trace.certificates
                if c.name == "near-free distance"][0]
        assert cert.passed

    def test_resourceful_sigma_tilde_fails(self):
        trace = pipeline.step1(coherence_qubit(), H08, 4,
                               DiagonalFamily(2, 1), SET)
        sched = pipeline.mr_schedule(4)
        pipeline.step2(trace, sched)
        n_red = sched.reduced_copies
        trace.eps_N = 1e-3
        plus = np.ones((2, 2)) / 2.0
        mat = plus
        for _ in range(n_red - 1):
            mat = np.kron(mat, plus)
        trace.sigma_tilde = opalg.density(mat, (2,) * n_red)
        with pytest.raises(CertificateFailed):
            pipeline.asym_free_certificate(trace, sched,
                                           DiagonalFamily(2, n_red), SET)


class TestSandwich:
    @pytest.mark.parametrize("eps", [math.nan, math.inf])
    def test_non_finite_eps_rejected(self, eps):
        # rejected before the relative-entropy solve, not inside it
        with pytest.raises(ValueError, match="eps"):
            pipeline.finite_n_sandwich(coherence_qubit(),
                                       DiagonalFamily(2, 2), eps, SET)

    def test_upper_bound_is_set_inclusion(self):
        rep = pipeline.finite_n_sandwich(coherence_qubit(),
                                         DiagonalFamily(2, 3), 1e-4, SET)
        assert rep.eps_value <= rep.upper_bound + 1e-12
        assert rep.certificate.passed

    def test_degenerate_eps_collapse(self):
        rep = pipeline.finite_n_sandwich(coherence_qubit(),
                                         DiagonalFamily(2, 3), 1e-12, SET)
        assert abs(rep.eps_value - rep.upper_bound) < 1e-6

    def test_lower_bound_formula(self):
        eps = 1e-4
        fam = DiagonalFamily(2, 3)
        rep = pipeline.finite_n_sandwich(coherence_qubit(), fam, eps, SET)
        lam = fam.full_rank_witness().lambda_min() ** (1.0 / 3.0)
        log_term = math.log2((1 + 2 * eps) / eps) + 3 * math.log2(1 / lam)
        cont = 3 * log_term ** 2 * math.sqrt(eps) / (
            1 - eps * lam ** 3 / (2 * (1 + 2 * eps)))
        penalty = (1 + 2 * eps) * cont + 2 * eps * (3 * math.log2(1 / lam) + 1)
        want_lower = (rep.upper_bound * 3 - penalty) / 3
        assert abs(rep.lower_bound - want_lower) < 1e-9
        assert rep.eps_value >= rep.lower_bound - 1e-9


class TestTraceSerialization:
    def test_save_trace(self, tmp_path):
        # a pure base, the mixed base of MIXED_N5_ROWS and its phased twin,
        # whose rho_N, sigma~ and delta~ are complex: every state file
        # reads back bit-exactly
        mixed = np.array([[0.7, 0.2], [0.2, 0.3]])
        phased = np.array([[0.7, 0.2j], [-0.2j, 0.3]])
        cases = ((coherence_qubit(), H08, 4), (opalg.density(mixed), 0.1, 5),
                 (opalg.density(phased), 0.1, 5))
        for k, (rho, y, N) in enumerate(cases):
            trace = pipeline.run_direct_part(rho, y, N, DiagonalFamily(2, 1),
                                             SET)
            out = tmp_path / f"trace{k}"
            pipeline.save_trace(trace, str(out))
            for name in ("sigma_N", "rho_N", "sigma_tilde", "delta_tilde"):
                back = opalg.load_density(str(out / f"{name}.op"))
                assert np.array_equal(back.mat, getattr(trace, name).mat), name
            with open(out / "certificates.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == len(trace.certificates)
            assert all(r["pass"] == "true" for r in rows)
        assert np.iscomplexobj(trace.rho_N.mat)
