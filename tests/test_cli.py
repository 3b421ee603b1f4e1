import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import fdadapt
from fdadapt import (
    BandwidthGrid,
    CurveObservations,
    DesignSpec,
    EvalGrid,
    NoiseSpec,
    ProcessSpec,
    RegularitySchedule,
    covariance,
    fit,
    ingest_long_csv,
    make_dataset,
    regularity_at_anchors,
    sample_dataset,
    write_long_csv,
)
from fdadapt.cli import main


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "curves.csv"
    rc = main([
        "simulate", "--process", "fbm", "--hurst", "0.5",
        "--design", "independent", "--noise", "homoscedastic",
        "--noise-sd", "0.05", "--n", "40", "--m", "40",
        "--seed", "7", "--out", str(path),
    ])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def fou_csv(tmp_path_factory):
    """fou data where one of 20 anchors has no curve with defined order-2
    presmoothed values."""
    path = tmp_path_factory.mktemp("fou") / "curves.csv"
    sampled = sample_dataset(
        ProcessSpec(kind="fou", a=1.0, rho=1.0),
        DesignSpec(kind="independent", m_mean=40),
        NoiseSpec(kind="homoscedastic", sd=0.05),
        40,
        np.random.SeedSequence(36),
    )
    write_long_csv(sampled.dataset, path)
    return path


def read_columns(path, skip=0):
    """CSV columns by header name as float arrays, empty cells as NaN."""
    lines = path.read_text().splitlines()[skip:]
    rows = [line.split(",") for line in lines[1:]]
    return {
        name: np.array([float(r[k]) if r[k] else np.nan for r in rows])
        for k, name in enumerate(lines[0].split(","))
    }


def shift_times(src, dst):
    """Copy a long CSV with every time t mapped to 5 + 10 t."""
    lines = src.read_text().splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        cid, t, y = line.split(",")
        out.append(f"{cid},{5.0 + 10.0 * float(t)!r},{y}")
    dst.write_text("\n".join(out) + "\n")


class TestSimulate:
    def test_same_seed_same_bytes(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["simulate", "--n", "6", "--m", "12", "--seed", "3"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert sha(a) == sha(b)

    def test_seed_changes_output(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert main(["simulate", "--n", "6", "--m", "12", "--seed", "3",
                     "--out", str(a)]) == 0
        assert main(["simulate", "--n", "6", "--m", "12", "--seed", "4",
                     "--out", str(b)]) == 0
        assert sha(a) != sha(b)

    def test_header_and_row_count(self, tmp_path):
        out = tmp_path / "d.csv"
        assert main(["simulate", "--n", "5", "--m", "8",
                     "--design", "common", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "curve_id,t,y"
        assert len(lines) == 1 + 5 * 8

    def test_latent_sidecar(self, tmp_path):
        out = tmp_path / "d.csv"
        lat = tmp_path / "lat.csv"
        assert main(["simulate", "--n", "4", "--m", "10",
                     "--latent-grid", "17", "--out", str(out),
                     "--latent-out", str(lat)]) == 0
        lines = lat.read_text().splitlines()
        assert lines[0] == "curve_id,t,x"
        assert len(lines) == 1 + 4 * 17


class TestRegularity:
    def test_anchor_rows(self, data_csv, tmp_path):
        out = tmp_path / "reg.csv"
        rc = main(["regularity", "--data", str(data_csv),
                   "--anchors", "4", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("t2,t1,t3,delta_hat,H_hat,alpha_hat,L2_hat,"
                            "theta_12,theta_13,retained_curves")
        assert len(lines) == 5
        for line in lines[1:]:
            cells = line.split(",")
            t2, t1, t3 = map(float, cells[:3])
            assert t1 < t2 < t3
            alpha = float(cells[5])
            assert 0.0 < alpha <= 3.0
            assert int(cells[9]) > 0

    def test_degenerate_curves_exit_2(self, tmp_path):
        data = tmp_path / "flat.csv"
        lines = ["curve_id,t,y"]
        times = np.linspace(0.05, 0.95, 30)
        for cid in range(5):
            lines += [f"{cid},{float(t)!r},1.0" for t in times]
        data.write_text("\n".join(lines) + "\n")
        out = tmp_path / "reg.csv"
        rc = main(["regularity", "--data", str(data),
                   "--anchors", "2", "--out", str(out)])
        assert rc == 2

    def test_missing_file_exit_1(self, tmp_path):
        rc = main(["regularity", "--data", str(tmp_path / "nope.csv"),
                   "--out", str(tmp_path / "reg.csv")])
        assert rc == 1


class TestMean:
    def test_grid_output(self, data_csv, tmp_path):
        out = tmp_path / "mean.csv"
        rc = main(["mean", "--data", str(data_csv), "--grid", "31",
                   "--anchors", "6", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,mu_hat,h_star,W_N,risk_bias,risk_var,risk_dropout"
        assert len(lines) == 32
        ts = []
        for line in lines[1:]:
            cells = line.split(",")
            ts.append(float(cells[0]))
            if cells[1]:
                assert np.isfinite(float(cells[1]))
                assert float(cells[2]) > 0.0
                assert int(cells[3]) > 0
        assert ts == sorted(ts)
        defined = sum(1 for line in lines[1:] if line.split(",")[1])
        assert defined > 25

    def test_input_not_modified(self, data_csv, tmp_path):
        before = sha(data_csv)
        main(["mean", "--data", str(data_csv), "--grid", "11",
              "--anchors", "4", "--out", str(tmp_path / "m.csv")])
        assert sha(data_csv) == before

    def test_bad_flag_value_exit_1(self, data_csv, tmp_path):
        rc = main(["mean", "--data", str(data_csv), "--grid", "lots",
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1


class TestCov:
    def test_surface_output(self, data_csv, tmp_path):
        out = tmp_path / "cov.csv"
        rc = main(["cov", "--data", str(data_csv), "--grid", "7",
                   "--mean-grid", "31", "--anchors", "6",
                   "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# d=")
        assert " c=" in lines[0]
        assert lines[1] == "s,t,gamma_hat,Gamma_hat,h_star,in_band,W_N_pair"
        assert len(lines) == 2 + 7 * 7
        table = {}
        for line in lines[2:]:
            cells = line.split(",")
            s, t = cells[0], cells[1]
            assert cells[5] in ("0", "1")
            table[(s, t)] = cells[3]
        for (s, t), val in table.items():
            assert table[(t, s)] == val

    def test_band_width_parses(self, data_csv, tmp_path):
        out = tmp_path / "cov.csv"
        main(["cov", "--data", str(data_csv), "--grid", "5",
              "--mean-grid", "21", "--anchors", "4", "--out", str(out)])
        head = out.read_text().splitlines()[0]
        frags = dict(part.split("=") for part in head[2:].split(" "))
        d = float(frags["d"])
        c = float(frags["c"])
        assert 0.0 < d < 1.0
        assert 0.0 < c < 1.0

    def test_off_diagonal_lattice_cells_filled(self, data_csv, tmp_path,
                                               monkeypatch):
        """With --h-min 0.06 no grid bandwidth is admissible for adjacent
        lattice coordinates (0.101 apart), so the lattice reaches the fill
        with NaN cells off the diagonal as well as on it."""
        seen = []
        fill = covariance._fill_lattice_nan

        def spy(H):
            seen.append(np.isnan(H))
            return fill(H)

        monkeypatch.setattr(covariance, "_fill_lattice_nan", spy)
        assert main(["cov", "--h-min", "0.06", "--anchors", "6",
                     "--data", str(data_csv),
                     "--out", str(tmp_path / "cov.csv")]) == 0
        # NaN exactly on the diagonal (10 cells) and next to it (18)
        k, l = np.indices(seen[0].shape)
        assert np.array_equal(seen[0], abs(k - l) <= 1)
        surf = fit(ingest_long_csv(data_csv),
                   EvalGrid.make_uniform(101).points,
                   EvalGrid.make_uniform(21).points, n_anchors=6,
                   cov_bandwidths=BandwidthGrid(h_min=0.06, h_max=0.1,
                                                count=41)).cov
        assert np.diff(surf.lattice)[0] > 0.1
        assert np.isfinite(surf.lattice_h).all()


def run_fresh_interpreter(lines, cwd):
    """Run the code lines in a new interpreter that finds this package and
    fail the test with its stderr when the code fails."""
    package_root = os.path.dirname(os.path.dirname(fdadapt.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    done = subprocess.run([sys.executable, "-c", "\n".join(lines)],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == 0, done.stderr


class TestImportWithoutTestCode:
    def test_package_imports_without_test_helpers(self, tmp_path):
        """The package runs without pytest, hypothesis or the test helpers
        (lp_oracle, conftest) on the path; the one-curve reference solver
        lives only in the tests."""
        run_fresh_interpreter([
            "import sys",
            "for name in ('pytest', 'hypothesis', 'lp_oracle', 'conftest'):",
            "    sys.modules[name] = None",
            "import fdadapt.cli",
            "import fdadapt.kernels",
            "assert not hasattr(fdadapt, 'lp_weights')",
            "assert not hasattr(fdadapt.kernels, 'lp_coefficient_weights')",
        ], tmp_path)

    def test_cli_import_leaves_integrate_and_process_pool_unloaded(
            self, tmp_path):
        """import fdadapt.cli loads scipy but neither scipy.integrate nor
        the process pool; diagonal_fill_error loads scipy.integrate on its
        first call and gives the min(s, t) fill error d**2/12."""
        run_fresh_interpreter([
            "import math, sys",
            "import fdadapt.cli",
            "assert 'scipy' in sys.modules",
            "for name in ('scipy.integrate', 'concurrent.futures',",
            "             'multiprocessing'):",
            "    assert name not in sys.modules, name",
            "from fdadapt import diagonal_fill_error",
            "got = diagonal_fill_error(min, 0.02)",
            "assert math.isclose(got, 0.02 ** 2 / 12, rel_tol=1e-6), got",
            "assert 'scipy.integrate' in sys.modules",
        ], tmp_path)


class TestAnchorFailurePolicy:
    @pytest.mark.parametrize("command", ["regularity", "mean", "cov"])
    def test_failed_anchor_dropped_with_one_line(self, fou_csv, tmp_path,
                                                 capsys, command):
        out = tmp_path / "out.csv"
        rc = main([command, "--data", str(fou_csv), "--anchors", "20",
                   "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == 0
        assert len([ln for ln in err.splitlines() if "dropped" in ln]) == 1
        if command == "regularity":
            assert len(out.read_text().splitlines()) == 1 + 19

    def test_mean_matches_library_fit(self, fou_csv, tmp_path):
        out = tmp_path / "mean.csv"
        assert main(["mean", "--data", str(fou_csv), "--anchors", "20",
                     "--out", str(out)]) == 0
        want = fit(ingest_long_csv(fou_csv),
                   EvalGrid.make_uniform(101).points, n_anchors=20)
        assert len(want.dropped) == 1
        assert_array_equal(read_columns(out)["mu_hat"], want.mean.values)


class TestRescale:
    """Times in [5, 15] come back in input units, not unit-interval time."""

    @pytest.fixture(scope="class")
    def shifted(self, data_csv, tmp_path_factory):
        path = tmp_path_factory.mktemp("shifted") / "curves.csv"
        shift_times(data_csv, path)
        ds = ingest_long_csv(path, rescale=True)
        lo, hi = ds.time_transform[0], sum(ds.time_transform)
        assert 4.0 < lo < 5.0 and 15.0 < hi < 16.0
        return path, ds

    def run(self, tmp_path, path, *argv):
        out = tmp_path / "out.csv"
        assert main([*argv, "--data", str(path), "--rescale",
                     "--anchors", "6", "--out", str(out)]) == 0
        return out

    def test_regularity(self, shifted, tmp_path):
        path, ds = shifted
        offset, scale = ds.time_transform
        cols = read_columns(self.run(tmp_path, path, "regularity"))
        regs, _ = regularity_at_anchors(ds, RegularitySchedule(m_hat=ds.m_hat),
                                        6)
        for col, attr in (("t1", "t1"), ("t2", "anchor_t2"), ("t3", "t3")):
            unit = np.array([getattr(r, attr) for r in regs])
            assert_allclose(cols[col], offset + scale * unit, rtol=1e-14)
        assert 5.0 < cols["t2"].min() and cols["t2"].max() < 15.0

    def test_mean(self, shifted, tmp_path):
        path, ds = shifted
        offset, scale = ds.time_transform
        cols = read_columns(self.run(tmp_path, path, "mean", "--grid", "31"))
        grid = EvalGrid.make_uniform(31).points
        assert_allclose(cols["t"], offset + scale * grid, rtol=1e-14)
        want = fit(ds, grid, n_anchors=6).mean
        assert_allclose(cols["h_star"], scale * want.h_star, rtol=1e-14)
        assert_array_equal(cols["mu_hat"], want.values)

    def test_cov(self, shifted, tmp_path):
        path, ds = shifted
        offset, scale = ds.time_transform
        out = self.run(tmp_path, path, "cov", "--grid", "5",
                       "--mean-grid", "21")
        cols = read_columns(out, skip=1)
        grid = EvalGrid.make_uniform(5).points
        want = fit(ds, EvalGrid.make_uniform(21).points, grid,
                   n_anchors=6).cov
        assert_allclose(cols["s"], offset + scale * np.repeat(grid, 5),
                        rtol=1e-14)
        assert_allclose(cols["t"], offset + scale * np.tile(grid, 5),
                        rtol=1e-14)
        assert_allclose(cols["h_star"], scale * want.h_star.ravel(),
                        rtol=1e-14)
        head = out.read_text().splitlines()[0]
        d = float(dict(p.split("=") for p in head[2:].split(" "))["d"])
        assert_allclose(d, scale * want.band_width_d, rtol=1e-14)

    def test_dropped_anchor_in_input_units(self, tmp_path, capsys):
        # fou data on which, after rescaling, one of 20 anchors has no
        # curve with defined order-1 presmoothed values
        sampled = sample_dataset(
            ProcessSpec(kind="fou", a=1.0, rho=1.0),
            DesignSpec(kind="independent", m_mean=40),
            NoiseSpec(kind="homoscedastic", sd=0.05),
            40,
            np.random.SeedSequence(44),
        )
        unit = tmp_path / "unit.csv"
        write_long_csv(sampled.dataset, unit)
        path = tmp_path / "curves.csv"
        shift_times(unit, path)
        ds = ingest_long_csv(path, rescale=True)
        offset, scale = ds.time_transform
        _, dropped = regularity_at_anchors(
            ds, RegularitySchedule(m_hat=ds.m_hat), 20
        )
        assert len(dropped) == 1
        t2 = dropped[0][0]
        assert main(["regularity", "--data", str(path), "--rescale",
                     "--anchors", "20", "--out", str(tmp_path / "o.csv")]) == 0
        lines = [ln for ln in capsys.readouterr().err.splitlines()
                 if "dropped anchor" in ln]
        assert len(lines) == 1
        assert lines[0].startswith(
            f"fdadapt: dropped anchor {offset + scale * t2:.6g} "
            f"(unit-interval {t2:.6g}): "
        )
        assert 5.0 < float(lines[0].split()[3]) < 15.0

    def test_width_flags_in_input_units(self, data_csv, tmp_path):
        # unit-interval data spanning [1/102, 101/102]: at 5 + 10 t its
        # rescaled times are its own again (offset 5, scale 10)
        ds = ingest_long_csv(data_csv)
        lo, hi = ds.times_flat.min(), ds.times_flat.max()
        unit = tmp_path / "unit.csv"
        write_long_csv(make_dataset([
            CurveObservations(c.curve_id,
                              (1.0 + 100.0 * (c.times - lo) / (hi - lo))
                              / 102.0, c.values)
            for c in ds.curves
        ]), unit)
        wide = tmp_path / "wide.csv"
        shift_times(unit, wide)
        assert_allclose(ingest_long_csv(wide, rescale=True).time_transform,
                        (5.0, 10.0), rtol=1e-14)
        widths = {"--h-min": 0.02, "--h-max": 0.3,
                  "--presmooth-bandwidth": 0.04}

        def run(path, factor, *extra):
            out = tmp_path / f"{path.stem}.out.csv"
            flags = [str(x) for kv in widths.items()
                     for x in (kv[0], factor * kv[1])]
            assert main(["mean", "--data", str(path), *extra, "--anchors",
                         "6", "--grid", "31", *flags, "--out", str(out)]) == 0
            return read_columns(out)

        got = run(wide, 10.0, "--rescale")
        want = run(unit, 1.0)
        assert_allclose(got["t"], 5.0 + 10.0 * want["t"], rtol=1e-14)
        assert_allclose(got["h_star"], 10.0 * want["h_star"], rtol=1e-12)
        assert_array_equal(got["W_N"], want["W_N"])
        assert_allclose(got["mu_hat"], want["mu_hat"], rtol=1e-10)


class TestConfigFile:
    def test_config_sets_defaults(self, data_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\ngrid=15\nanchors=4\n")
        out = tmp_path / "m.csv"
        rc = main(["--config", str(cfg), "mean", "--data", str(data_csv),
                   "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 16

    def test_explicit_flag_beats_config(self, data_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid=15\nanchors=4\n")
        out = tmp_path / "m.csv"
        rc = main(["--config", str(cfg), "mean", "--data", str(data_csv),
                   "--grid", "9", "--out", str(out)])
        assert rc == 0
        assert len(out.read_text().splitlines()) == 10

    def test_unknown_key_exit_1(self, data_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("gridd=15\n")
        rc = main(["--config", str(cfg), "mean", "--data", str(data_csv),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1

    def test_bad_value_exit_1(self, data_csv, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid=plenty\n")
        rc = main(["--config", str(cfg), "mean", "--data", str(data_csv),
                   "--out", str(tmp_path / "m.csv")])
        assert rc == 1

    def test_missing_config_path_exit_1(self):
        assert main(["--config"]) == 1

    def test_config_without_subcommand_exit_1(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid=15\n")
        assert main(["--config", str(cfg)]) == 1


class TestExperiment:
    def test_report_and_summary(self, tmp_path):
        out = tmp_path / "report.csv"
        summ = tmp_path / "summary.csv"
        rc = main([
            "experiment", "--process", "fbm", "--hurst", "0.5",
            "--design", "common", "--noise", "homoscedastic",
            "--noise-sd", "0.05", "--pairs", "12x40",
            "--replications", "2", "--grid", "21", "--anchors", "3",
            "--seed", "5", "--out", str(out), "--summary", str(summ),
        ])
        assert rc == 0
        rlines = out.read_text().splitlines()
        assert rlines[0].startswith("config_id,N,m,p,rep,")
        assert len(rlines) == 3
        slines = summ.read_text().splitlines()
        assert slines[0].startswith("config_id,N,m,p,reps,metric,")
        assert len(slines) == 5

    def test_worker_count_keeps_bytes(self, tmp_path):
        outs = []
        for tag, workers in (("a", "1"), ("b", "2")):
            out = tmp_path / f"report_{tag}.csv"
            rc = main([
                "experiment", "--pairs", "10x40", "--replications", "2",
                "--design", "common", "--grid", "21", "--anchors", "3",
                "--seed", "11", "--workers", workers, "--out", str(out),
            ])
            assert rc == 0
            outs.append(out)
        assert sha(outs[0]) == sha(outs[1])

    def test_bad_pairs_exit_1(self, tmp_path):
        rc = main(["experiment", "--pairs", "12y40",
                   "--out", str(tmp_path / "r.csv")])
        assert rc == 1
