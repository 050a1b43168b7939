import math

import numpy as np
import pytest

from qstein import cli, opalg
from qstein.opalg import SystemShape

from oracles import classical_threshold_value


@pytest.fixture()
def sigma0_file(tmp_path):
    path = tmp_path / "sigma0.op"
    opalg.save_density(opalg.maximally_mixed(SystemShape((2,))), str(path))
    return str(path)


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
        opalg.save_density(opalg.density(sigma0), str(path))
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


class TestVerify:
    def test_small_suite_passes(self, tmp_path, capsys):
        out = str(tmp_path / "v.csv")
        code = cli.main(["verify", "--suite", "opalg", "--trials", "10",
                         "--seed", "7", "--out", out])
        assert code == 0
        lines = open(out).read().strip().splitlines()
        assert lines[0] == "suite,check,trial,margin,tolerance"
        assert len(lines) > 10

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
        opalg.save_density(opalg.density(np.diag([1.0, 0.0])), str(path))
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


class TestUsage:
    def test_unknown_command(self):
        assert cli.main(["bogus"]) == 2

    def test_negative_tol(self, tmp_path, sigma0_file):
        cfg = write_cfg(tmp_path, "t.cfg", f"""
state = classical:0.75
family = iid:{sigma0_file}
y_grid = 0.1
n_grid = 2
""")
        assert cli.main(["exponent", "--config", cfg, "--tol", "-1",
                         "--out", str(tmp_path / "x.csv")]) == 2

    def test_missing_config(self):
        assert cli.main(["exponent", "--config", "/nonexistent/x.cfg"]) == 2

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
