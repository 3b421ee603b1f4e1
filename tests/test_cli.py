import hashlib

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from fdadapt import (
    DesignSpec,
    EvalGrid,
    NoiseSpec,
    ProcessSpec,
    RegularitySchedule,
    fit,
    ingest_long_csv,
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
