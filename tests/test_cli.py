import math
import tracemalloc

import numpy as np
import pytest

from qstein import cli, opalg, pipeline, verify
from qstein.opalg import SystemShape
from qstein.optim import SolverSettings

from oracles import classical_threshold_value, diagonal_dual_optimum


@pytest.fixture()
def sigma0_file(tmp_path):
    path = tmp_path / "sigma0.op"
    opalg.save_operator(opalg.maximally_mixed(SystemShape((2,))), str(path))
    return str(path)


@pytest.fixture()
def non_psd_file(tmp_path):
    path = tmp_path / "neg.op"
    path.write_text("dims: 2\n0 0 1.2 0.0\n1 1 -0.2 0.0\n")
    return str(path)


@pytest.fixture()
def no_wide_power(monkeypatch):
    """Fail, before allocating, any Kronecker power wider than 4096."""
    kron_power = opalg.kron_power

    def guarded(x, n):
        width = np.asarray(x).shape[0] ** n
        if width > 4096:
            raise AssertionError(f"dense power of width {width}")
        return kron_power(x, n)

    monkeypatch.setattr(opalg, "kron_power", guarded)


def write_cfg(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestConfig:
    def test_parse_with_comments(self, tmp_path):
        cfg = write_cfg(tmp_path, "a.cfg",
                        "# header\nstate = bell  # inline\n\nseed = 3\n")
        parsed = cli.parse_config(cfg)
        assert parsed == {"state": "bell", "seed": "3"}

    def test_bad_line(self, tmp_path):
        cfg = write_cfg(tmp_path, "b.cfg", "just words\n")
        with pytest.raises(cli.ConfigError):
            cli.parse_config(cfg)

    def test_state_presets(self):
        coh = cli.state_from_spec("coherence:0.8")
        assert abs(coh.mat[0, 0].real - 0.8) < 1e-12
        bell = cli.state_from_spec("bell")
        assert bell.total_dim == 4
        cls = cli.state_from_spec("classical:0.25")
        assert abs(cls.mat[1, 1].real - 0.75) < 1e-12
        with pytest.raises(cli.ConfigError):
            cli.state_from_spec("nonsense")


class TestExponent:
    def test_classical_curve_matches_binomial(self, tmp_path, sigma0_file):
        out = str(tmp_path / "curve.csv")
        cfg = write_cfg(tmp_path, "e.cfg", f"""
state = classical:0.75
family = iid:{sigma0_file}
y_grid = 0.1,0.3
n_grid = 2,4
""")
        assert cli.main(["exponent", "--config", cfg, "--out", out]) == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "N,y,e,gap"
        for line in lines[1:]:
            n_s, y_s, e_s, _ = line.split(",")
            want = classical_threshold_value(int(n_s), float(y_s))
            assert abs(float(e_s) - want) < 1e-9

    def test_tiny_threshold_row(self, tmp_path):
        # y = -20 makes b = 2^-80: the closed form's limit b -> 0, e = 1
        out = str(tmp_path / "t.csv")
        cfg = write_cfg(tmp_path, "t.cfg", """
state = coherence:0.8
family = diagonal
y_grid = -20
n_grid = 4
""")
        assert cli.main(["exponent", "--config", cfg, "--out", out]) == 0
        n_s, y_s, e_s, gap_s = open(out).read().splitlines()[1].split(",")
        assert (n_s, y_s, e_s) == ("4", "-20", "1")
        assert float(gap_s) <= 1e-15

    def test_byte_identical_reruns(self, tmp_path, sigma0_file):
        cfg = write_cfg(tmp_path, "e.cfg", f"""
state = classical:0.75
family = iid:{sigma0_file}
y_grid = 0.05,0.2
n_grid = 3
seed = 11
""")
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        cli.main(["exponent", "--config", cfg, "--out", a, "--threads", "1"])
        cli.main(["exponent", "--config", cfg, "--out", b, "--threads", "3"])
        assert open(a, "rb").read() == open(b, "rb").read()

    def test_free_state_gives_zero_curve(self, tmp_path, sigma0_file):
        out = str(tmp_path / "z.csv")
        cfg = write_cfg(tmp_path, "z.cfg", f"""
state = classical:0.5
family = iid:{sigma0_file}
y_grid = 0.05,0.2
n_grid = 2,4
""")
        assert cli.main(["exponent", "--config", cfg, "--out", out]) == 0
        for line in open(out).read().strip().splitlines()[1:]:
            assert float(line.split(",")[2]) == 0.0

    def test_singular_sigma0(self, tmp_path):
        # the only free state is pure, so each row is Tr[(rho^N - b s^N)_+]
        path = tmp_path / "pure.op"
        sigma0 = np.diag([1.0, 0.0])
        opalg.save_operator(opalg.density(sigma0), str(path))
        out = str(tmp_path / "s.csv")
        cfg = write_cfg(tmp_path, "s.cfg", f"""
state = classical:0.75
family = iid:{path}
y_grid = 0.1,0.3
n_grid = 2,3
""")
        assert cli.main(["exponent", "--config", cfg, "--out", out]) == 0
        rho = np.diag([0.75, 0.25])
        for line in open(out).read().strip().splitlines()[1:]:
            n_s, y_s, e_s, _ = line.split(",")
            n, y = int(n_s), float(y_s)
            rho_n, sigma_n = rho, sigma0
            for _ in range(n - 1):
                rho_n, sigma_n = np.kron(rho_n, rho), np.kron(sigma_n, sigma0)
            want = opalg.positive_part_trace(rho_n - 2.0 ** (y * n) * sigma_n)
            assert abs(float(e_s) - want) < 1e-11

    def test_gnuplot_companion(self, tmp_path, sigma0_file):
        out = str(tmp_path / "g.csv")
        cfg = write_cfg(tmp_path, "g.cfg", f"""
state = classical:0.75
family = iid:{sigma0_file}
y_grid = 0.1
n_grid = 2
""")
        cli.main(["exponent", "--config", cfg, "--out", out, "--gnuplot"])
        assert (tmp_path / "g.csv.gp").exists()

    @pytest.mark.parametrize("y", ["1100", "nan"])
    def test_rate_without_finite_threshold(self, tmp_path, capsys, y):
        # 2^1100 overflows and nan has no threshold: a usage error naming
        # the rate, not an OverflowError traceback or a LAPACK failure
        cfg = write_cfg(tmp_path, "r.cfg", f"""
state = coherence:0.8
family = diagonal
y_grid = {y}
n_grid = 1
""")
        assert cli.main(["exponent", "--config", cfg, "--out",
                         str(tmp_path / "r.csv"), "--threads", "1"]) == 2
        assert f"rate y={y}" in capsys.readouterr().err


    def test_pure_row_allocates_no_wide_object(self, monkeypatch):
        # one N = 12 row of a pure base: a dense 4096 x 4096 complex matrix
        # is 256 MiB, and the row's solves peak below 1 MiB and build no
        # Kronecker power, at y = -100 too, where 2^{yN} underflows to 0
        def refuse(*args):
            raise AssertionError("dense power built")

        monkeypatch.setattr(opalg, "kron_power", refuse)
        rho = cli.state_from_spec("coherence:0.8")
        ys = [-100.0, 0.5, 0.6, 0.7, 0.8, 0.9]
        tracemalloc.start()
        try:
            rows = cli._exponent_row(opalg.Power(rho, 12), "diagonal", ys,
                                     SolverSettings())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20
        assert [row[1] for row in rows] == ys
        assert all(gap <= 1e-7 for *_, gap in rows)


class TestVerify:
    def test_small_suite_passes(self, tmp_path, capsys):
        out = str(tmp_path / "v.csv")
        code = cli.main(["verify", "--suite", "opalg", "--trials", "10",
                         "--seed", "7", "--out", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "suite,check,trial,margin,tolerance"
        assert len(lines) > 10

    # each suite's (check, tolerance) pairs, in run order
    CHECKS = {
        "opalg": [("cptp-positive-part", "1e-09"),
                  ("partial-trace-monotone", "1e-09"),
                  ("log-monotone", "1e-08"),
                  ("trace-distance-dominance", "1e-10"),
                  ("dominated-state", "1e-09"),
                  ("positive-part-idempotent", "1e-10"),
                  ("trace-norm-triangle", "1e-10")],
        "entropy": [("entropy-continuity", "1e-09"),
                    ("relent-continuity", "1e-08"),
                    ("relent-upper-bound", "1e-09"),
                    ("dominance-to-relent", "1e-09"),
                    ("relent-convexity-second-arg", "1e-09"),
                    ("relent-additivity", "1e-08"),
                    ("classical-kl-agreement", "1e-10")],
        "optim": [("weak-duality", "1e-06"), ("threshold-monotone", "1e-09"),
                  ("coherence-closed-form", "1e-06"),
                  ("robustness-witness", "1e-08")],
        "symmetry": [("sym-projector", "1e-08"),
                     ("almost-power-fixed-point", "1e-10"),
                     ("power-tail-bound", "1e-08"),
                     ("conditioning-chain", "1e-08")],
    }

    def test_all_suites_rerun_byte_identical(self, tmp_path):
        outs = [str(tmp_path / f"v{k}.csv") for k in range(2)]
        for out in outs:
            assert cli.main(["verify", "--suite", "all", "--trials", "2",
                             "--seed", "7", "--out", out]) == 0
        first, second = (open(out, "rb").read() for out in outs)
        assert first == second
        rows = [line.split(",") for line in first.decode().splitlines()[1:]]
        triples = list(dict.fromkeys((r[0], r[1], r[4]) for r in rows))
        assert [len(checks) for checks in verify.SUITES.values()] == [
            len(checks) for checks in self.CHECKS.values()]
        assert triples == [("all", name, tol)
                           for checks in self.CHECKS.values()
                           for name, tol in checks]

    def test_bad_trials_usage_error(self):
        assert cli.main(["verify", "--suite", "opalg", "--trials", "-1"]) == 2

    def test_unknown_suite_usage_error(self):
        assert cli.main(["verify", "--suite", "bogus", "--trials", "5"]) == 2


class TestPipelineCommand:
    def test_premise_failure_exit_code(self, tmp_path):
        cfg = write_cfg(tmp_path, "p.cfg", """
state = coherence:0.8
family = diagonal
y = 5.0
n = 4
""")
        assert cli.main(["pipeline", "--config", cfg,
                         "--out", str(tmp_path / "t")]) == 3
        assert cli.main(["pipeline", "--config", cfg, "--expect-premise-fail",
                         "--out", str(tmp_path / "t2")]) == 0

    def test_free_state_premise(self, tmp_path):
        cfg = write_cfg(tmp_path, "p2.cfg", """
state = classical:0.5
family = diagonal
y = 0.3
n = 4
""")
        assert cli.main(["pipeline", "--config", cfg,
                         "--out", str(tmp_path / "t")]) == 3

    def test_step1_conclusion_failure_exit_code(self, tmp_path, capsys,
                                                monkeypatch):
        # a witness built with sqrt(X) replaced by the identity fails the
        # lemma's operator conclusion: a certificate failure, exit 4
        monkeypatch.setattr(pipeline.opalg, "sqrt_psd",
                            lambda mat, tol=None: np.eye(len(mat)))
        cfg = write_cfg(tmp_path, "p7.cfg", """
state = coherence:0.8
family = diagonal
y = 0.7219280948873623
n = 4
""")
        assert cli.main(["pipeline", "--config", cfg,
                         "--out", str(tmp_path / "t")]) == 4
        assert "'step1 operator dominance' failed" in capsys.readouterr().err

    @pytest.mark.parametrize("expect_fail", [False, True])
    def test_schedule_checked_before_step1(self, tmp_path, capsys,
                                           expect_fail):
        # at n = 3 no schedule exists; y = 3.0 would also fail step 1
        cfg = write_cfg(tmp_path, "p6.cfg", """
state = coherence:0.8
family = diagonal
y = 3.0
n = 3
""")
        flags = ["--expect-premise-fail"] if expect_fail else []
        assert cli.main(["pipeline", "--config", cfg, *flags,
                         "--out", str(tmp_path / "t")]) == 2
        assert "schedule needs N >= 4" in capsys.readouterr().err

    def test_successful_run_writes_trace(self, tmp_path):
        cfg = write_cfg(tmp_path, "p3.cfg", """
state = coherence:0.8
family = diagonal
y = 0.7219280948873623
n = 4
max_iters = 192
""")
        out = tmp_path / "trace"
        assert cli.main(["pipeline", "--config", cfg, "--out",
                         str(out)]) == 0
        assert (out / "certificates.csv").exists()

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_cfg(tmp_path, "p5.cfg", """
state = coherence:0.8
family = diagonal
y = 0.7219280948873623
n = 4
seed = 3
""")
        runs = [tmp_path / "run1", tmp_path / "run2"]
        for out in runs:
            assert cli.main(["pipeline", "--config", cfg, "--out",
                             str(out)]) == 0
        names = sorted(p.name for p in runs[0].iterdir())
        assert "certificates.csv" in names and len(names) == 5
        assert sorted(p.name for p in runs[1].iterdir()) == names
        for name in names:
            assert ((runs[0] / name).read_bytes()
                    == (runs[1] / name).read_bytes())

    def test_dimension_cap_exit(self, tmp_path):
        cfg = write_cfg(tmp_path, "p4.cfg", """
state = classical:0.75
family = diagonal
y = 0.1887
n = 13
""")
        # mixed base state beyond the purified cap has no reduced route
        assert cli.main(["pipeline", "--config", cfg,
                         "--out", str(tmp_path / "t")]) == 5

    def test_mixed_base_exits_at_step2_cap(self, tmp_path, sigma0_file,
                                           capsys):
        # N = 7 passes step 1's cap; (d^2)^N = 16384 exceeds step 2's, and a
        # mixed base state has no ray pair
        cfg = write_cfg(tmp_path, "p7.cfg", f"""
state = classical:0.75
family = iid:{sigma0_file}
y = 0.1
n = 7
""")
        assert cli.main(["pipeline", "--config", cfg,
                         "--out", str(tmp_path / "t")]) == 5
        assert "purified dimension 16384" in capsys.readouterr().err

    def test_step2_cap_is_checked_before_step1(self, tmp_path, sigma0_file,
                                               capsys, monkeypatch):
        # N = 10 passes step 1's cap, but step 2's depends only on the base
        # state and N, so no threshold is solved before the refusal
        from qstein import pipeline

        def no_solve(*args, **kwargs):
            raise AssertionError("step 1 ran before step 2's cap")
        monkeypatch.setattr(pipeline, "min_positive_part", no_solve)
        cfg = write_cfg(tmp_path, "p10.cfg", f"""
state = classical:0.75
family = iid:{sigma0_file}
y = 0.1
n = 10
""")
        assert cli.main(["pipeline", "--config", cfg,
                         "--out", str(tmp_path / "t")]) == 5
        assert ("purified dimension 1048576 exceeds cap 4096"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("y", ["300", "nan", "inf"])
    def test_rate_without_finite_threshold(self, tmp_path, capsys, y):
        cfg = write_cfg(tmp_path, "p6.cfg", f"""
state = coherence:0.8
family = diagonal
y = {y}
n = 4
""")
        assert cli.main(["pipeline", "--config", cfg,
                         "--out", str(tmp_path / "t")]) == 2
        assert f"rate y={y}" in capsys.readouterr().err


class TestPn:
    def test_prints_primal_dual(self, tmp_path, sigma0_file, capsys):
        cfg = write_cfg(tmp_path, "pn.cfg", f"""
state = classical:0.75
family = iid:{sigma0_file}
k = 2
""")
        assert cli.main(["pn", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "primal = 0.75" in out
        assert "dual   = 0.75" in out

    def test_missing_k_usage(self, tmp_path, sigma0_file):
        cfg = write_cfg(tmp_path, "pn2.cfg", f"""
state = classical:0.75
family = iid:{sigma0_file}
""")
        assert cli.main(["pn", "--config", cfg]) == 2

    def test_singular_sigma0(self, tmp_path, capsys):
        # a singular iid member has no full-rank witness; the exact value
        # is 0.625 on both sides (b = 1/2)
        path = tmp_path / "pure.op"
        opalg.save_operator(opalg.density(np.diag([1.0, 0.0])), str(path))
        cfg = write_cfg(tmp_path, "pn3.cfg", f"""
state = classical:0.5
family = iid:{path}
k = 4
""")
        assert cli.main(["pn", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "primal = 0.625" in out
        dual = float(out.split("dual   = ")[1].split()[0])
        assert abs(dual - 0.625) <= 1e-6

    def test_diagonal_family_classical_state(self, tmp_path, capsys):
        # diag(0.75, 0.25) is free, so the best test at budget 1/4 accepts
        # it with probability 1/4
        cfg = write_cfg(tmp_path, "pn4.cfg", """
state = classical:0.75
family = diagonal
k = 4
""")
        assert cli.main(["pn", "--config", cfg]) == 0
        assert "primal = 0.25\n" in capsys.readouterr().out

    def test_coherence_power_gap(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "pn5.cfg", """
state = coherence:0.8
family = diagonal
n = 6
k = 8
""")
        assert cli.main(["pn", "--config", cfg]) == 0
        out = capsys.readouterr().out
        gap = float(out.split("gap    = ")[1].split()[0])
        assert 0.0 <= gap <= 1e-7
        primal = float(out.split("primal = ")[1].split()[0])
        dual = float(out.split("dual   = ")[1].split()[0])
        want = diagonal_dual_optimum(6, 8.0)
        assert abs(want - 0.969292720055) <= 1e-12
        assert primal <= want <= dual

    def test_mixed_power(self, tmp_path, capsys):
        # diag(0.7, 0.3)^{x4} is free, so the best test at budget 1/4
        # accepts it with probability 1/4
        cfg = write_cfg(tmp_path, "pn6.cfg", """
state = classical:0.7
family = diagonal
n = 4
k = 4
""")
        assert cli.main(["pn", "--config", cfg]) == 0
        out = capsys.readouterr().out
        assert "primal = 0.25\n" in out
        assert "dual   = 0.25\n" in out

    @pytest.mark.parametrize("k", ["nan", "inf"])
    def test_non_finite_k_usage(self, tmp_path, capsys, k):
        # nan used to print primal = 1 and dual = inf with exit 0
        cfg = write_cfg(tmp_path, "pn6.cfg", f"""
state = coherence:0.8
family = diagonal
k = {k}
""")
        assert cli.main(["pn", "--config", cfg]) == 2
        assert f"K must be positive and finite, got {k}" in (
            capsys.readouterr().err)

    def test_rate_without_finite_threshold(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "pn7.cfg", """
state = coherence:0.8
family = diagonal
y = 300
n = 4
""")
        assert cli.main(["pn", "--config", cfg]) == 2
        assert "rate y=300" in capsys.readouterr().err


class TestOperatorFiles:
    @pytest.mark.parametrize("line", ["-1 0 0.25 0.0", "2 0 0.25 0.0",
                                      "1.5 1 0.25 0.0", "0 0 abc 0",
                                      "dims: 2,x"])
    def test_pn_rejects_index_out_of_range(self, tmp_path, capsys, line):
        # unchecked, a negative index would wrap and load another state, and
        # a large one would escape as an IndexError with exit 1; a field that
        # is no number, in an entry or in the header (line 4 after comments
        # and blank lines), is named by its file and line too
        path = tmp_path / "bad.op"
        head = ("# comment\n\n\n" if line.startswith("dims:")
                else "dims: 2\n0 0 0.75 0.0\n1 1 0.25 0.0\n")
        path.write_text(f"{head}{line}\n")
        cfg = write_cfg(tmp_path, "pn.cfg",
                        f"state = {path}\nfamily = diagonal\nk = 2\n")
        assert cli.main(["pn", "--config", cfg]) == 2
        assert "bad.op:4" in capsys.readouterr().err

    def test_exponent_rejects_nan_entry(self, tmp_path, capsys):
        path = tmp_path / "nan.op"
        path.write_text("dims: 2\n0 0 0.5 0.0\n0 1 nan 0.0\n1 1 0.5 0.0\n")
        cfg = write_cfg(tmp_path, "exp.cfg", f"""
state = {path}
family = diagonal
y_grid = 0.5
n_grid = 2
""")
        out = str(tmp_path / "e.csv")
        assert cli.main(["exponent", "--config", cfg, "--out", out,
                         "--threads", "1"]) == 2
        assert "non-finite" in capsys.readouterr().err


    def test_exponent_rejects_non_psd_state_file(self, tmp_path, capsys,
                                                 non_psd_file):
        # a failed state check is rejected input (exit 2), not a failed
        # verification (exit 1), and names its file
        cfg = write_cfg(tmp_path, "exp.cfg", f"""
state = {non_psd_file}
family = diagonal
y_grid = 0.5
n_grid = 2
""")
        out = str(tmp_path / "e.csv")
        assert cli.main(["exponent", "--config", cfg, "--out", out,
                         "--threads", "1"]) == 2
        err = capsys.readouterr().err
        assert f"{non_psd_file}: density matrix has eigenvalue" in err

    def test_pn_rejects_non_psd_iid_sigma0(self, tmp_path, capsys,
                                           non_psd_file):
        cfg = write_cfg(tmp_path, "pn.cfg", f"""
state = classical:0.75
family = iid:{non_psd_file}
k = 2
""")
        assert cli.main(["pn", "--config", cfg]) == 2
        assert f"{non_psd_file}: density matrix" in capsys.readouterr().err


class TestDenseCap:
    """A power wider than the dense cap exits 5 before it is built."""

    def test_exponent(self, tmp_path, capsys, no_wide_power):
        cfg = write_cfg(tmp_path, "exp.cfg", """
state = coherence:0.8
family = diagonal
y_grid = 0.5
n_grid = 13
""")
        out = str(tmp_path / "e.csv")
        assert cli.main(["exponent", "--config", cfg, "--out", out,
                         "--threads", "1"]) == 5
        assert "dimension cap" in capsys.readouterr().err

    def test_exponent_checks_every_n_first(self, tmp_path, capsys,
                                           monkeypatch, no_wide_power):
        # the cap of the N = 13 row stops the run before the feasible N = 9
        # row is solved
        calls = []
        monkeypatch.setattr(cli, "min_positive_part",
                            lambda *a, **k: calls.append(a))
        cfg = write_cfg(tmp_path, "exp.cfg", """
state = coherence:0.8
family = diagonal
y_grid = 0.5
n_grid = 9,13
""")
        out = str(tmp_path / "e.csv")
        assert cli.main(["exponent", "--config", cfg, "--out", out,
                         "--threads", "1"]) == 5
        assert "dimension cap" in capsys.readouterr().err
        assert not calls

    def test_pn(self, tmp_path, capsys, no_wide_power):
        cfg = write_cfg(tmp_path, "pn.cfg", """
state = coherence:0.8
family = diagonal
n = 13
k = 2
""")
        assert cli.main(["pn", "--config", cfg]) == 5
        assert "dimension cap" in capsys.readouterr().err


class TestUsage:
    def test_unknown_command(self):
        assert cli.main(["bogus"]) == 2

    @pytest.mark.parametrize("tol", ["-1", "inf", "nan"])
    def test_negative_tol(self, tmp_path, sigma0_file, tol):
        # every stage certifies a gap <= inf at once: an infinite tol used to
        # write an uncertified curve with exit 0
        cfg = write_cfg(tmp_path, "t.cfg", f"""
state = classical:0.75
family = iid:{sigma0_file}
y_grid = 0.1
n_grid = 2
""")
        assert cli.main(["exponent", "--config", cfg, "--tol", tol,
                         "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one(self, tmp_path, capsys, sigma0_file, threads):
        # 0 used to run one worker per CPU with exit 0, and -1 failed with a
        # message that did not name the flag
        cfg = write_cfg(tmp_path, "t.cfg", f"""
state = classical:0.75
family = iid:{sigma0_file}
y_grid = 0.1
n_grid = 2
""")
        assert cli.main(["exponent", "--config", cfg, "--threads", threads,
                         "--out", str(tmp_path / "x.csv")]) == 2
        assert "--threads" in capsys.readouterr().err

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_missing_config(self):
        assert cli.main(["exponent", "--config", "/nonexistent/x.cfg"]) == 2

    @staticmethod
    def _exits_naming(argv, path, capsys):
        # a path that cannot be read or written is a usage error that names
        # it, not a traceback
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err

    def test_exponent_out_in_missing_directory(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "e.cfg", """
state = coherence:0.8
family = diagonal
y_grid = 0.1
n_grid = 2
""")
        out = tmp_path / "missing" / "e.csv"
        self._exits_naming(["exponent", "--config", cfg, "--out", str(out),
                            "--threads", "1"], out, capsys)

    def test_exponent_state_is_a_directory(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "e.cfg", f"""
state = {tmp_path}
family = diagonal
y_grid = 0.1
n_grid = 2
""")
        self._exits_naming(["exponent", "--config", cfg, "--out",
                            str(tmp_path / "e.csv")], tmp_path, capsys)

    def test_pn_missing_sigma0(self, tmp_path, capsys):
        sigma0 = tmp_path / "missing.op"
        cfg = write_cfg(tmp_path, "pn.cfg", f"""
state = coherence:0.8
family = iid:{sigma0}
n = 2
y = 0.2
""")
        self._exits_naming(["pn", "--config", cfg], sigma0, capsys)

    def test_pipeline_out_below_a_file(self, tmp_path, capsys):
        cfg = write_cfg(tmp_path, "p.cfg", """
state = coherence:0.8
family = diagonal
y = 0.7219280948873623
n = 4
max_iters = 192
""")
        out = tmp_path / "p.cfg" / "trace"
        self._exits_naming(["pipeline", "--config", cfg, "--out", str(out)],
                           out, capsys)

    def test_verify_out_in_missing_directory(self, tmp_path, capsys):
        out = tmp_path / "missing" / "v.csv"
        self._exits_naming(["verify", "--suite", "opalg", "--trials", "1",
                            "--out", str(out)], out, capsys)

    @staticmethod
    def _refuse(monkeypatch, owner, name):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{name} ran before the --out check")
        monkeypatch.setattr(owner, name, refuse)

    def test_exponent_checks_out_before_solving(self, tmp_path, capsys,
                                                monkeypatch):
        self._refuse(monkeypatch, cli, "min_positive_part")
        cfg = write_cfg(tmp_path, "e.cfg", """
state = coherence:0.8
family = diagonal
y_grid = 0.1
n_grid = 2
""")
        out = tmp_path / "missing" / "e.csv"
        self._exits_naming(["exponent", "--config", cfg, "--out", str(out),
                            "--threads", "1"], out, capsys)

    def test_verify_checks_out_before_checking(self, tmp_path, capsys,
                                               monkeypatch):
        self._refuse(monkeypatch, verify, "run_suite")
        out = tmp_path / "missing" / "v.csv"
        self._exits_naming(["verify", "--suite", "opalg", "--trials", "1",
                            "--out", str(out)], out, capsys)

    def test_pipeline_checks_out_before_solving(self, tmp_path, capsys,
                                                monkeypatch):
        # below a regular file: os.makedirs creates missing parents
        self._refuse(monkeypatch, pipeline, "run_direct_part")
        cfg = write_cfg(tmp_path, "p.cfg", """
state = coherence:0.8
family = diagonal
y = 0.7219280948873623
n = 4
""")
        out = tmp_path / "p.cfg" / "trace"
        self._exits_naming(["pipeline", "--config", cfg, "--out", str(out)],
                           out, capsys)

    @pytest.mark.parametrize("command", ["exponent", "pn", "pipeline"])
    def test_family_not_fitting_the_state(self, tmp_path, capsys, command):
        # a sep:2x2 cut or a qudit sigma0 on a qubit state is a usage error,
        # not the verification failure of exit 1
        sigma0 = tmp_path / "sigma0.op"
        opalg.save_operator(opalg.maximally_mixed(SystemShape((4,))),
                            str(sigma0))
        family = f"iid:{sigma0}" if command == "pn" else "sep:2x2"
        cfg = write_cfg(tmp_path, "f.cfg", f"""
state = coherence:0.8
family = {family}
y_grid = 0.1
n_grid = 2
y = 0.7219280948873623
n = 4
""")
        argv = [command, "--config", cfg]
        if command != "pn":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == 2
        assert "state dimension 2" in capsys.readouterr().err

    def test_solver_flags_override_config(self, tmp_path, sigma0_file):
        cfg = write_cfg(tmp_path, "f.cfg", f"""
state = classical:0.75
family = iid:{sigma0_file}
y_grid = 0.1
n_grid = 2
max_iters = 400
""")
        out = str(tmp_path / "f.csv")
        assert cli.main(["exponent", "--config", cfg, "--out", out,
                         "--max-iters", "64"]) == 0
        assert cli.main(["exponent", "--config", cfg, "--out", out,
                         "--max-iters", "0"]) == 2
