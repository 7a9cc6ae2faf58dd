import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cavityspectra
from cavityspectra import bhd, cli, oracle, spectral
from cavityspectra.cli import main
from cavityspectra.imagesum import TruncationPolicy
from cavityspectra.spectral import (
    _sigma_diag_values,
    sigma_modes,
    sigma_modes_diag,
    sigma_vacuum,
)
from cavityspectra.units import CavityGeometry, build_grid, near_discontinuity

G = CavityGeometry(1.0)
BHD_README = ["bhd", "--omega-lo", "6.283185307179586", "--x1", "0.75", "--y1", "0",
              "--x2", "0.75", "--y2", "50"]


def run(argv):
    return main(list(argv))


class TestDensityCommands:
    def test_spectral_diag_flags_sub_cutoff(self, tmp_path, capsys):
        # below the first cutoff pi/a no mode is guided: the density is exactly 0, and with no
        # mode threshold at omega = 0 there is no jump to note
        out = tmp_path / "diag.csv"
        for omega in ("2", "1e-4"):
            assert run(["spectral-diag", "--omega", omega, "--x", "0.5", "--out", str(out)]) == 0
            header, row = out.read_text().splitlines()
            assert header == "omega,x,y,sigma,sub_cutoff"
            assert row == f"{float(omega)!r},0.5,0.0,0.0,true"
            assert capsys.readouterr().err == ""

    def test_density_columns_are_the_contract(self, tmp_path):
        out = tmp_path / "map.csv"
        assert run(["spectral-map", "--x-steps", "3", "--y-steps", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,x,y,sigma"
        xs, ys = [0.0, 0.5, 1.0], np.linspace(-50.0, 50.0, 5).tolist()
        want = sigma_modes(2.0 * math.pi, xs, ys, G).tolist()
        assert lines[1:] == [f"{2.0 * math.pi!r},{x!r},{y!r},{want[i][j]!r}"
                             for i, x in enumerate(xs) for j, y in enumerate(ys)]

    def test_map_notes_the_discontinuity(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        run(["spectral-map", "--x-steps", "2", "--y-steps", "2", "--out", str(out)])
        assert capsys.readouterr().err == ("note: omega in {6.28319} lies within 0.001 of a spectral "
                                           "discontinuity at n*pi; the threshold mode weighs 1/2\n")

    def test_slice_emits_normalized_ratio(self, tmp_path):
        out = tmp_path / "slice.csv"
        assert run(["spectral-slice", "--omega", "5.0", "--x", "0.75", "--y-range", "-2", "2",
                    "--y-steps", "5", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,x,y,ratio"
        middle = lines[3].split(",")  # y = 0 row: ratio is identically 1
        assert float(middle[3]) == 1.0

    def test_slice_near_either_plate_is_the_mode_sum_ratio(self, tmp_path, capsys):
        # the geometry is symmetric under x -> a - x; next to the far plate the
        # N = 1000 image sum's coincident value was residual, and the ratio read 1.0028
        ratios = []
        for x in (0.9999, 1e-4):
            out = tmp_path / f"slice-{x}.csv"
            assert run(["spectral-slice", "--omega", "5", "--x", repr(x), "--y-range", "-1", "1",
                        "--y-steps", "3", "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""
            row = sigma_modes(5.0, [x], [-1.0, 0.0, 1.0, 0.0], G)[0].tolist()
            lines = out.read_text().splitlines()[1:]
            assert lines == [f"5.0,{x!r},{y!r},{v / row[-1]!r}" for y, v in zip((-1.0, 0.0, 1.0), row)]
            ratios.append([float(line.split(",")[3]) for line in lines])
        assert np.abs(np.subtract(*ratios)).max() <= 1e-12
        assert ratios[0][0] == pytest.approx(-0.232791, abs=1e-6)

    @pytest.mark.parametrize("x, ratio", [("1e-154", "-0.23279075826906462"), ("1e-155", None), ("1e-160", None)])
    def test_slice_next_to_a_plate_is_refused_once_the_first_sine_squared_is_subnormal(self, x, ratio, capsys):
        # sin^2(pi x) is 9.9e-308 at x = 1e-154, a normal float; at 1e-155 and 1e-160 it is subnormal,
        # and the ratio at |y| = 1 read ...6656 and -0.23278008 where the mode sum printed it
        argv = ["spectral-slice", "--omega", "5", "--x", x, "--y-range", "-1", "1", "--y-steps", "3"]
        code = run(argv)
        out, err = capsys.readouterr()
        if ratio is None:
            assert (code, out, err) == (2, "", f"argument error: --x {x} lies on a plate or so near one that "
                                               "sin^2(pi x/a) is below the smallest normal float, where the "
                                               "slice's normalizing density vanishes or loses its digits\n")
        else:
            assert (code, err) == (0, "")
            assert out.splitlines()[1:] == [f"5.0,{x},-1.0,{ratio}", f"5.0,{x},0.0,1.0", f"5.0,{x},1.0,{ratio}"]

    def test_map_and_slice_rows_equal_single_points(self, tmp_path):
        # the rows include y = 0 and the plates x = 0 and x = 1
        omega = 7.3
        ys = np.linspace(-5.0, 5.0, 51).tolist()
        assert 0.0 in ys
        common = ["--omega", str(omega), "--y-range", "-5", "5", "--y-steps", "51"]
        assert run(["spectral-map", "--x-steps", "3", *common,
                    "--out", str(tmp_path / "map.csv")]) == 0
        assert run(["spectral-slice", "--x", "0.75", *common,
                    "--out", str(tmp_path / "slice.csv")]) == 0

        rows = [line.split(",") for line in (tmp_path / "map.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3 * len(ys)
        for row in rows:
            x, y = float(row[1]), float(row[2])
            assert row[3] == repr(float(sigma_modes(omega, [x], [y], G)[0, 0]))

        diagonal = float(sigma_modes(omega, [0.75], [0.0], G)[0, 0])
        rows = [line.split(",") for line in (tmp_path / "slice.csv").read_text().splitlines()[1:]]
        assert [row[3] for row in rows] == [
            repr(float(sigma_modes(omega, [0.75], [y], G)[0, 0]) / diagonal) for y in ys]

    @pytest.mark.parametrize("argv", [
        ["spectral-map", "--x-steps", "4", "--y-range", "-2", "2", "--y-steps", "5"],
        ["spectral-slice", "--x", "0.3", "--y-range", "-2", "2", "--y-steps", "5"],
    ])
    def test_map_and_slice_make_one_density_call(self, argv, monkeypatch, tmp_path):
        # the slice's coincident value rides along as the point (x, 0) of its row
        calls = []

        def counting(omega, xs, ys, geometry, engine=cli.sigma_modes):
            calls.append((len(xs), len(ys)))
            return engine(omega, xs, ys, geometry)

        def refused(*args):
            raise AssertionError("a second density call")

        monkeypatch.setattr(cli, "sigma_modes", counting)
        monkeypatch.setattr(cli, "sigma_modes_diag", refused)
        monkeypatch.setattr(cli, "_sigma_yy_values", refused)
        assert run([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        assert calls == ([(4, 5)] if argv[0] == "spectral-map" else [(1, 6)])  # 4 x 5, and 5 + 1

    def test_a_cutoff_above_the_image_cap_is_refused_before_any_evaluation(self, monkeypatch, capsys):
        def refused(*args):
            raise AssertionError("evaluated a density")

        monkeypatch.setattr(cli, "two_point_yy_closed", refused)
        assert run(["twopoint", "--s", "0.3", "--x", "0.4", "--n-terms", str(2**20 + 1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("argument error: cutoff ") and err.count("\n") == 1

    def test_spectral_diag_rows_equal_single_points(self, tmp_path):
        # one sigma_modes_diag call over the 41 x, each row equal to its x's own call
        out = tmp_path / "diag.csv"
        assert run(["spectral-diag", "--omega", "7.3", "--x-steps", "41", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == [repr(x) for x in np.linspace(0.0, 1.0, 41).tolist()]
        for row in rows:
            assert row == ["7.3", row[1], "0.0", repr(sigma_modes_diag(7.3, float(row[1]), G)), "false"]

    def test_json_format(self, tmp_path):
        out = tmp_path / "diag.json"
        run(["spectral-diag", "--omega", "5.0", "--x", "0.25", "--format", "json", "--out", str(out)])
        rows = json.loads(out.read_text())
        assert rows[0]["omega"] == 5.0 and rows[0]["sub_cutoff"] is False


class TestFigureCommands:
    def test_fig4_right_columns_and_dip(self, tmp_path):
        out = tmp_path / "f4r.csv"
        assert run(["figure", "fig4-right", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega_over_c_per_a,db_x025,db_x05"
        dipped = False
        for line in lines[1:]:
            w, d1, d2 = (float(v) for v in line.split(","))
            if math.pi < w < 4 * math.pi and min(d1, d2) <= -3.0:
                dipped = True
        assert dipped

    def test_fig4_left_boundary_values(self, tmp_path):
        out = tmp_path / "f4l.csv"
        assert run(["figure", "fig4-left", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,x,normdiff"
        for line in lines[1:]:
            w, x, nd = (float(v) for v in line.split(","))
            if x == 0.0:
                assert nd == -1.0
            if w < math.pi - 0.01:  # the sub-cutoff plateau, with a margin below the jump
                assert nd == pytest.approx(-1.0, abs=0.01)

    def test_fig2_right_svg_smoke(self, tmp_path, capsys):
        out = tmp_path / "f2r.csv"
        svg = tmp_path / "f2r.svg"
        assert run(["figure", "fig2-right", "--out", str(out), "--svg", str(svg)]) == 0
        assert svg.read_text().startswith("<svg")
        assert out.read_text().splitlines()[0] == "omega,x,y,ratio"
        err = capsys.readouterr().err
        assert err.startswith("note: omega in {6.28319}") and err.count("\n") == 1  # the jump note alone


class TestFig2Recipes:
    """fig2-left: the off-axis mode sum at the guard point below the jump at 2 pi."""

    def test_the_frequency_is_the_guard_point_below_two_pi(self):
        assert cli.FIG2_OMEGA == build_grid(6.0, 2.0 * math.pi - 1e-4, 2).points[-1]
        assert cli.FIG2_OMEGA < 2.0 * math.pi and not near_discontinuity(cli.FIG2_OMEGA)

    def test_left_rows_are_the_mode_sum_bit_for_bit(self, tmp_path):
        # the map's default grid: 21 x over [0, a], 101 y over [-50 a, 50 a]
        xs = np.linspace(0.0, 1.0, 21).tolist()
        ys = np.linspace(-50.0, 50.0, 101).tolist()
        want = sigma_modes(cli.FIG2_OMEGA, xs, ys, G).tolist()
        rows = [(cli.FIG2_OMEGA, x, y, want[i][j]) for i, x in enumerate(xs) for j, y in enumerate(ys)]
        out = tmp_path / "f2l.csv"
        assert run(["figure", "fig2-left", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,x,y,sigma"
        assert lines[1:] == [",".join(repr(v) for v in row) for row in rows]

    @pytest.mark.parametrize("outputs", [["--out", "{}/rows.csv", "--svg", "{}/map.svg"],
                                         ["--format", "json", "--out", "{}/rows.json"]])
    def test_left_writes_the_bytes_of_spectral_map_at_its_frequency(self, outputs, tmp_path):
        written = []
        for argv in (["figure", "fig2-left"], ["spectral-map", "--omega", repr(cli.FIG2_OMEGA)]):
            folder = tmp_path / argv[0]
            folder.mkdir()
            assert run([*argv, *(arg.format(folder) for arg in outputs)]) == 0
            written.append({path.name: path.read_bytes() for path in folder.iterdir()})
        assert written[0] == written[1]
        assert len(written[0]) == sum("{}" in arg for arg in outputs) and all(written[0].values())

    def test_a_bessel_argument_above_the_node_cap_is_refused_in_one_line(self, monkeypatch, tmp_path, capsys):
        # fig2-left reaches kappa_1 |y| = 50 sqrt(omega^2 - pi^2) = 272.0 (372 nodes); a cap of 300 refuses it
        monkeypatch.setattr(spectral, "MAX_BESSEL_NODES", 300)
        out = tmp_path / "f2l.csv"
        assert run(["figure", "fig2-left", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("argument error: kappa |y| = 272.012 at omega = 6.28219: ")
        assert "more than 300 trapezoid nodes (every |y| up to 31.8 a fits)" in err
        assert err.count("\n") == 1 and not out.exists()


class TestFig4Recipes:
    """The fig4 recipes against the mode sum they draw from and the image sum that converges to it."""

    @pytest.mark.parametrize("argv, shape", [
        (["figure", "fig4-left"], (41, 96)),
        (["figure", "fig4-right"], (2, 160)),
        (["spectral-diag", "--omega", "7.3", "--x-steps", "41"], (41,)),
    ])
    def test_one_mode_sum_over_every_x(self, argv, shape, monkeypatch, tmp_path):
        calls, sines = [], []

        def counting(omega, x, geometry, engine=cli.sigma_modes_diag):
            values = engine(omega, x, geometry)
            calls.append(values.shape)
            return values

        def sine_squares(folded, q, engine=spectral._sine_squares):
            sines.append((folded.size, q.size))
            return engine(folded, q)

        monkeypatch.setattr(cli, "sigma_modes_diag", counting)
        monkeypatch.setattr(spectral, "_sine_squares", sine_squares)
        assert run([*argv, "--out", str(tmp_path / "out.csv")]) == 0
        # every block holds every x; fig4-left's 41 x and 96 frequencies reach 5 modes,
        # 3 936 terms a mode, so 2 modes fill the working set
        blocks = {"fig4-left": [2, 2, 1], "fig4-right": [5], "--omega": [3]}[argv[1]]
        assert calls == [shape] and sines == [(shape[0], m) for m in blocks]

    def test_left_rows_are_the_mode_sum_bit_for_bit(self):
        table, omegas, xs, _ = cli._fig4_left_rows()
        vac = sigma_vacuum(omegas, 0.0)
        want = [((sigma_modes_diag(omegas, x, G) - vac) / vac).tolist() for x in xs.tolist()]
        rows = [(w, x, want[i][j]) for j, w in enumerate(omegas.tolist()) for i, x in enumerate(xs.tolist())]
        assert table.dtype == np.float64 and table.shape == (omegas.size * xs.size, 3)
        assert np.array_equal(table.view(np.int64), np.array(rows).view(np.int64))

    def test_the_image_sum_at_large_n_meets_the_rows_off_the_jumps(self):
        rows, omegas, xs, columns = cli._fig4_left_rows()
        picks = [9, 30, 55, 84]  # omega near 1.3, 4.0, 7.3 and 11.1: clear of every n pi
        assert all(abs(w - round(w / math.pi) * math.pi) > 0.1 for w in omegas[picks])
        cols = [10, 20, 30, 39]  # x = a/4, a/2, 3a/4 and 0.975 a
        values, _ = _sigma_diag_values(omegas[picks], xs[cols].tolist(), G, TruncationPolicy(n_terms=100_000))
        vac = sigma_vacuum(omegas[picks], 0.0)
        gap = np.abs((values - vac) / vac - columns[cols][:, picks])
        assert gap.max() <= 2e-5

    def test_more_images_close_the_gap_at_the_guard_point_below_pi(self):
        _, omegas, xs, columns = cli._fig4_left_rows()
        j = int(np.argmin(np.abs(omegas - (math.pi - 1e-3))))
        assert abs(omegas[j] - (math.pi - 1e-3)) < 1e-12
        w, vac = omegas[j:j + 1], sigma_vacuum(omegas[j], 0.0)
        for i in (10, 20, 30, 39):
            gaps = [abs((_sigma_diag_values(w, [float(xs[i])], G, TruncationPolicy(n_terms=n))[0][0, 0] - vac) / vac
                        - columns[i, j]) for n in (1000, 100_000)]
            assert gaps[1] < gaps[0]


class TestDetectorAndTwoPoint:
    def test_twopoint_value_row(self, tmp_path):
        out = tmp_path / "tp.csv"
        assert run(["twopoint", "--s", "0.3", "--x", "0.4", "--y", "0.8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "s,x,y,value,n_terms"

    def test_twopoint_guard_exit_code_names_the_image(self, capsys):
        # s = 2 sits exactly on the first translated image light cone
        assert run(["twopoint", "--s", "2.0", "--x", "0.5", "--y", "0.0"]) == 3
        err = capsys.readouterr().err
        assert "image index" in err and "n=1" in err

    def test_bhd_row(self, tmp_path):
        out = tmp_path / "bhd.csv"
        code = run(["bhd", "--omega-lo", str(2 * math.pi), "--x1", "0.75", "--y1", "0",
                    "--x2", "0.75", "--y2", "50", "--out", str(out)])
        assert code == 0
        header, row = out.read_text().splitlines()
        assert header == ("omega_lo,omega_lo_rad_per_s,mean_current,variance,"
                          "variance_approx,balance_residual")
        vals = row.split(",")
        assert float(vals[2]) == 0.0  # ground-state mean
        assert float(vals[5]) == pytest.approx(0.0, abs=1e-12)  # balanced by construction
        assert float(vals[3]) == pytest.approx(float(vals[4]), rel=0.1)

    def test_bhd_with_an_offset_whose_square_overflows_prints_the_approximation(self, capsys):
        assert run(["bhd", "--omega-lo", "6.283185307179586", "--x1", "0.75", "--y1", "0",
                    "--x2", "0.75", "--y2", "1e300"]) == 0
        captured = capsys.readouterr()
        variance, approx = captured.out.splitlines()[1].split(",")[3:5]
        # R(1,1) from the guided modes: 1.1 ulp from the exact 5.7884303550708766426 (TestSmearedModes)
        assert variance == approx == "5.7884303550708776"
        assert captured.err == ""

    @pytest.mark.parametrize("argv", [
        ["bhd", "--omega-lo", "2.0", "--x1", "0.5", "--y1", "0", "--x2", "0.5", "--y2", "10"],
        [*BHD_README, "--lo-p", "1e200"],  # finite, beyond the dispersion
        ["bhd", "--omega-lo", "6", "--x1", "0.5", "--y1", "0", "--x2", "0.5", "--y2", "5e-324"],  # p = pi/5e-324 = inf
    ])
    def test_bhd_below_dispersion_omits_residual(self, argv, tmp_path, capsys):
        out = tmp_path / "bhd.csv"
        assert run([*argv, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].endswith(",")
        assert "no running mode" in capsys.readouterr().err

    @pytest.mark.parametrize("lo_p", ["nan", "-100", "-inf", "-NaN"])
    def test_bhd_refuses_a_negative_or_nan_lo_p(self, lo_p, tmp_path, capsys):
        out = tmp_path / "bhd.csv"
        assert run([*BHD_README, "--lo-p", lo_p, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"argument error: --lo-p must be a nonnegative wave number, got {float(lo_p)!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("value", ["0", "-1", "inf", "nan"])
    @pytest.mark.parametrize("flag, name", [("--omega-lo", "LO frequency"), ("--width", "kernel width"),
                                            ("--calibration", "calibration constant")])
    def test_bhd_refuses_a_nonpositive_or_nonfinite_value_and_names_it(self, flag, name, value, tmp_path, capsys):
        out = tmp_path / "bhd.csv"
        argv = ["bhd", "--omega-lo", value, *BHD_README[3:]] if flag == "--omega-lo" else [*BHD_README, flag, value]
        assert run([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"argument error: {name} must be positive and finite, got {float(value)!r}\n"
        assert not out.exists()

    def test_bhd_balances_diodes_whose_spacing_overflows(self, capsys):
        # y2 - y1 = 2e308 overflows; the default p is still pi over the true spacing, 1.5707963267948966e-308
        assert run(["bhd", "--omega-lo", "6", "--x1", "0.5", "--y1", "-1e308", "--x2", "0.5", "--y2", "1e308"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert abs(float(row.split(",")[5])) <= 1e-12
        assert run(["bhd", "--omega-lo", "6", "--x1", "0.5", "--y1", "-1e308", "--x2", "0.5", "--y2", "1e308",
                    "--lo-p", "1.5707963267948966e-308"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == row

    def test_bhd_at_a_wide_lo_prints_the_pinned_row(self, capsys):
        # width 5 against pi/a: R(1,1) sums 76 modes, up to omega_lo + 27.3 width
        assert run(["bhd", "--omega-lo", "100", "--x1", "0.3", "--y1", "0", "--x2", "0.3", "--y2", "0.8"]) == 0
        row = capsys.readouterr().out.splitlines()[1]
        assert row == "100.0,2.99792458e+16,0.0,300799.4025363837,300798.4472116543,0.0"

    def test_bhd_past_the_mode_cap_is_refused_before_any_sine_or_image(self, monkeypatch, tmp_path, capsys):
        # at the default width omega_lo/20 the reach omega_lo + 27.3 width passes 2^20 modes
        # above omega_lo a = 1.393e6
        monkeypatch.setattr(spectral, "_sine_squares", lambda *args: pytest.fail("formed the sines of the modes"))
        monkeypatch.setattr(bhd, "_image_sum", lambda *args: pytest.fail("summed the images"))
        out = tmp_path / "bhd.csv"
        assert run(["bhd", "--omega-lo", "1.4e6", "--x1", "0.5", "--y1", "0", "--x2", "0.5", "--y2", "1",
                    "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == "argument error: 1.05e+06 guided modes exceed the 1048576 one mode sum may include\n"
        assert not out.exists()


class TestPlumbing:
    @pytest.mark.parametrize("argv, flag", [
        ([*BHD_README, "--omega", "3"], "--omega"),  # a prefix of --omega-lo
        (["spectral-diag", "--omega", "5.0", "--x-st", "4"], "--x-st"),
        (["twopoint", "--s", "0.3", "--x", "0.4", "--n", "7"], "--n"),
        (["spectral-map", "--y-r", "0", "1"], "--y-r"),
    ])
    def test_an_abbreviated_flag_is_a_usage_error_that_names_the_command(self, argv, flag, tmp_path, capsys):
        assert run([*argv, "--out", str(tmp_path / "o.csv")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: cavityspectra {argv[0]}")
        assert f"cavityspectra {argv[0]}: error: unrecognized arguments: {flag}" in err.splitlines()[-1]
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("argv, flag", [
        ([*BHD_README, "--omega-lo", "3"], "--omega-lo"),
        (["bhd", "--omega-lo", "3", *BHD_README[1:]], "--omega-lo"),  # the first one given is not the one kept
        ([*BHD_README, "--y2=1"], "--y2"),
        (["spectral-diag", "--omega", "5.0", "--format", "json", "--x", "0.5", "--format", "csv"], "--format"),
        (["spectral-map", "--y-range", "0", "1", "--y-range", "0", "2"], "--y-range"),
        (["figure", "fig2-left", "--svg", "a.svg", "--svg=b.svg"], "--svg"),
    ])
    def test_a_flag_given_twice_is_one_argument_error_that_names_it(self, argv, flag, tmp_path, capsys):
        out = tmp_path / "o.csv"
        assert run([*argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"argument error: {flag} is given more than once\n"
        assert not out.exists()
        assert run([*argv, "--out", str(out), "--out", str(out)]) == 2
        assert not out.exists()

    def test_each_command_parser_maps_every_flag_to_its_dest_once_built(self):
        # the repeated-flag check reads the map the parser recorded as its flags were added
        parser = cli.build_parser()
        for name, command in parser.commands.items():
            assert command.dests == {flag: action.dest for action in command._actions
                                     for flag in action.option_strings}, name
        with pytest.raises(ValueError, match="--x is given more than once"):
            cli._refuse_repeated_flags(parser.commands["twopoint"], ["--s", "1", "--x", "0.4", "--x=0.5"])

    @pytest.mark.parametrize("argv, scientific, decimal", [
        (["bhd", "--omega-lo", "7", "--x1", ".5", "--y1", "SCI", "--x2", ".5", "--y2", "1"],
         "-1e-05", "-0.00001"),
        (["bhd", "--omega-lo", "7", "--x1", ".5", "--y1", "0", "--x2", ".5", "--y2", "SCI"],
         "-2.5E-1", "-0.25"),
        (["spectral-map", "--omega", "5", "--x-steps", "2", "--y-range", "SCI", "50",
          "--y-steps", "3"], "-5e-05", "-0.00005"),
        (["spectral-slice", "--omega", "5", "--x", "0.3", "--y-range", "-2", "SCI",
          "--y-steps", "3"], "-1e-1", "-0.1"),
        (["twopoint", "--s", "0.3", "--x", "0.4", "--y", "SCI"], "-8e-1", "-0.8"),
    ])
    def test_negative_values_in_scientific_notation_are_values(self, argv, scientific, decimal, capsys):
        outputs = []
        for value in (scientific, decimal):
            assert run([value if a == "SCI" else a for a in argv]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] and outputs[0].count("\n") >= 2

    def test_argument_errors_exit_two(self, capsys):
        assert run(["spectral-diag"]) == 2  # --omega missing: returned, not raised
        assert "the following arguments are required: --omega" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert run(["bhd", "--help"]) == 0
        assert "--omega-lo" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["bhd", "--omega-lo", "6.283185307179586", "--x1", "0.75", "--y1", "0",
         "--x2", "0.5", "--y2", "50"],
        ["spectral-diag", "--omega", "-1"],
        ["spectral-diag", "--omega", "5.0", "--x", "2"],
        ["twopoint", "--s", "0.3", "--x", "0.4", "--n-terms", "-3"],
        ["spectral-map", "--x-steps", "0"],
        ["spectral-map", "--y-steps", "0", "--svg", "SVG"],
        ["spectral-slice", "--y-steps", "0", "--svg", "SVG"],
        ["spectral-diag", "--omega", "5.0", "--x-steps", "0", "--svg", "SVG"],
        ["spectral-slice", "--x", "0", "--y-steps", "3"],
        ["spectral-slice", "--x", "1", "--y-steps", "3", "--svg", "SVG"],
        ["spectral-diag", "--omega", "-1e-3", "--x", "0.5"],  # reaches the value check
        ["bhd", "--omega-lo", "6.3", "--width", "1e-9", "--x1", "0.4", "--y1", "0",
         "--x2", "0.4", "--y2", "0.7"],  # an LO too narrow to smear
        ["bhd", "--omega-lo", "1e300", "--x1", "0.5", "--y1", "0", "--x2", "0.5", "--y2", "1"],
        [*BHD_README, "--amplitude", "inf"],
        [*BHD_README, "--amplitude", "nan"],
        ["twopoint", "--s", "1e308", "--x", "0.5", "--y", "1"],
        ["twopoint", "--s", "0.3", "--x", "0.5", "--y", "1e200"],
        ["twopoint", "--s", "nan", "--x", "0.5"],
        [*BHD_README, "--a-microns", "1e-320"],  # a separation that underflows in metres
        [*BHD_README, "--a-microns", "1e-300"],  # an SI frequency that overflows
        ["spectral-diag", "--omega", "1e300", "--x", "0.5"],  # a density that would overflow
        [*BHD_README, "--calibration", "1e200"],  # a variance that would overflow
        # offsets whose Bessel arguments kappa |y| exceed the trapezoid-node cap
        ["spectral-map", "--y-range", "-1e300", "1e300", "--x-steps", "2", "--y-steps", "2"],
        ["spectral-slice", "--x", "0.5", "--y-range", "1e200", "1e200", "--y-steps", "1"],
        ["spectral-map", "--omega", "6", "--y-range", "1e160", "1e160", "--x-steps", "2", "--y-steps", "1"],
        # high frequencies: kappa |y| = 250 000 on the default grid, and more than 2^20 modes
        ["spectral-map", "--omega", "5000", "--svg", "SVG"],
        ["spectral-diag", "--omega", "4e6", "--x", "0.5", "--svg", "SVG"],
        [*BHD_README, "--y1", "-inf"],  # read as a value, not as a flag
        # grid ranges with an infinite bound or a span that overflows
        ["spectral-map", "--y-range", "0", "inf", "--x-steps", "2", "--y-steps", "2", "--svg", "SVG"],
        ["spectral-slice", "--y-range", "-1.7e308", "1.7e308", "--y-steps", "3"],
        ["spectral-map", "--y-range", "-inf", "5"],
        # a slice whose coincident density vanishes: below the first cutoff, or next to a plate
        ["spectral-slice", "--omega", "2", "--y-steps", "3", "--svg", "SVG"],
        ["spectral-slice", "--x", "1e-200", "--y-steps", "3"],
        # an LO whose smear at y = 0 would sum more than 2^20 guided modes
        ["bhd", "--omega-lo", "4e6", "--x1", "0.5", "--y1", "0", "--x2", "0.5", "--y2", "1"],
        # a squared amplitude that overflows, at a plate where it would meet the exact 0 as nan
        ["bhd", "--omega-lo", "6.283185307179586", "--x1", "0", "--y1", "0", "--x2", "0", "--y2", "50",
         "--amplitude", "1e200"],
        [*BHD_README, "--amplitude", "1e200"],
        ["bhd", "--omega-lo", "1e100", "--x1", "0.5", "--y1", "0", "--x2", "0.5", "--y2", "1"],
        ["spectral-diag", "--omega", "1e100", "--x", "0.5"],
        ["spectral-slice", "--x", "1e-160", "--y-steps", "3"],  # sin^2(pi x) subnormal
    ])
    @pytest.mark.filterwarnings("error")  # a warning would print lines of its own outside the test
    def test_invalid_values_exit_two_with_one_line(self, argv, tmp_path, capsys):
        out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
        argv = [str(svg) if a == "SVG" else a for a in argv] + ["--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("argument error: ")
        assert err.count("\n") == 1 and len(err.encode()) < 200
        assert not out.exists() and not svg.exists()

    @pytest.mark.parametrize("argv, message", [
        (["spectral-diag", "--omega", "3", "--x-steps", "a"], "argument --x-steps: invalid int value: 'a'"),
        (["twopoint", "--s", "0.3", "--x", "0.4", "--n-terms", "2.5"], "argument --n-terms: invalid int value: '2.5'"),
        (["spectral-map", "--y-range", "1"], "argument --y-range: expected 2 arguments"),
        (["spectral-slice", "--x"], "argument --x: expected one argument"),
        (["spectral-diag", "--omega", "3", "--format", "xml"], "argument --format: invalid choice: 'xml'"),
        ([*BHD_README, "--width", "narrow"], "argument --width: invalid float value: 'narrow'"),
    ])
    def test_a_value_its_flag_refuses_is_a_usage_error_that_names_the_command(self, argv, message, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: cavityspectra {argv[0]}")
        assert err.splitlines()[-1].startswith(f"cavityspectra {argv[0]}: error: {message}")
        assert not out.exists()

    def test_a_mode_count_beyond_the_cap_is_written_in_three_digits(self, capsys):
        assert run(["spectral-diag", "--omega", "1e100", "--x", "0.5"]) == 2
        err = capsys.readouterr().err
        assert err == "argument error: 3.18e+99 guided modes exceed the 1048576 one mode sum may include\n"

    @pytest.mark.parametrize("argv", [
        ["validate", "--quick"],
        ["validate", "--n-terms", "5"],
        ["validate", "--accelerate"],
        ["validate", "--format", "json"],
        ["validate"],  # --out, appended below
        ["figure", "fig4-right", "--a-microns", "3"],
        ["spectral-diag", "--omega", "5.0", "--x", "0.5", "--a-microns", "3"],
        ["twopoint", "--s", "0.3", "--x", "0.4", "--accelerate"],
        # no density takes an accelerated mean: the flag is gone from every command
        ["spectral-diag", "--omega", "5.0", "--x", "0.5", "--accelerate"],
        ["spectral-map", "--x-steps", "2", "--y-steps", "2", "--accelerate"],
        ["spectral-slice", "--y-steps", "3", "--accelerate"],
        ["figure", "fig4-right", "--accelerate"],
        ["figure", "fig2-right", "--accelerate"],
        # the density commands and the figure recipes draw from exact sums or a fixed cutoff
        ["spectral-diag", "--omega", "5.0", "--x", "0.5", "--n-terms", "40"],
        ["spectral-map", "--x-steps", "2", "--y-steps", "2", "--n-terms", "40"],
        ["spectral-slice", "--y-steps", "3", "--n-terms", "40"],
        ["figure", "fig2-left", "--n-terms", "500"],
        ["figure", "fig2-right", "--n-terms", "30"],
        ["figure", "fig4-left", "--n-terms", "10"],
        ["figure", "fig4-right", "--n-terms", "10"],
        # the LO width sizes the smear's image sum, and t0 would only phase a classical field
        [*BHD_README, "--n-terms", "5"],
        [*BHD_README, "--accelerate"],
        [*BHD_README, "--t0", "1.7"],
    ])
    def test_flags_a_command_does_not_read_are_usage_errors(self, argv, tmp_path, capsys):
        out = tmp_path / "out.csv"
        assert run(argv + ["--out", str(out)]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not out.exists()

    def test_a_sequence_of_calls_prints_what_each_call_prints_alone(self, capsys):
        # one parser serves every call of a process: no call may leave state for the next
        calls = [
            BHD_README,
            ["spectral-diag", "--omega", "5.0", "--x-steps", "3", "--format", "json"],
            ["spectral-diag", "--omega", "5.0", "--x-steps", "3"],  # the former call's --format does not stay
            ["spectral-diag"],  # usage error: --omega missing
            [*BHD_README, "--n-terms", "5"],  # usage error: a flag bhd does not read
            ["twopoint", "--s", "0.3", "--x", "0.4", "--y", "0.8", "--format", "json"],
            ["spectral-map", "--x-steps", "2", "--y-steps", "3"],
            ["bhd", "--omega-lo", "7", "--x1", ".5", "--y1", "0", "--x2", ".5", "--y2", "1", "--width", "0.05"],
            ["twopoint", "--s", "0.3", "--x", "0.4", "--y", "0.8"],
            BHD_README,
        ]
        in_sequence = [(run(argv), capsys.readouterr()) for argv in calls]
        alone = []
        for argv in calls:
            cli._shared_parser.cache_clear()
            alone.append((run(argv), capsys.readouterr()))
        assert in_sequence == alone
        assert [code for code, _ in alone] == [0, 0, 0, 2, 2, 0, 0, 0, 0, 0]
        assert in_sequence[1][1].out != in_sequence[2][1].out

    def test_a_handler_replaced_after_the_first_call_is_the_one_that_runs(self, monkeypatch, capsys):
        assert run(BHD_README) == 0
        seen = []

        def handler(ns):
            seen.append(ns.omega_lo)
            return 7

        def no_parser():
            raise AssertionError("main built a second parser")

        monkeypatch.setattr(cli, "cmd_bhd", handler)
        monkeypatch.setattr(cli, "build_parser", no_parser)
        assert run(BHD_README) == 7
        assert seen == [2.0 * math.pi]

    def test_io_failure_exits_four(self):
        assert run(["twopoint", "--s", "0.3", "--x", "0.4",
                    "--out", "/nonexistent-dir/x.csv"]) == 4

    def test_validate_passes(self, capsys):
        assert run(["validate"]) == 0
        out = capsys.readouterr().out
        assert "9/9 validation checks passed" in out
        assert "FAIL" not in out
        assert "[PASS] sub-cutoff vanishing: max |sigma|/sigma_vacuum = 0.0029 below cutoff (tolerance 5%)" in out
        assert "-3.21 dB in (pi, 4 pi) (needs <= -3 dB), on the fig4-right rows, from the exact mode sum" in out
        assert ("max |sigma(x,y)/sigma(x,x)| = 0.0216 for |y| in [40a, 50a] (tolerance 10%), from the exact "
                "mode sum at the fig2-left frequency omega = 2 pi - 0.001; on the jump omega = 2 pi it is 0.62") in out
        assert "; off the axis 1.5e-04 over 3 points (tolerance 1e-3);" in out

    def test_csv_text_equals_per_cell_fmt_byte_for_byte(self):
        # repeated floats share one repr; 0.0 and -0.0 compare equal but print apart
        cells = [0.0, -0.0, 0.1, 0.1, -0.0, 0.0, 1e300, math.nan, math.nan, -math.inf, 3, None, True,
                 np.float64(-0.0), 5e-324, -5e-324, 2.5, 2.5]
        rows = [tuple(cells[k:k + 3]) for k in range(len(cells) - 2)] + [tuple(reversed(cells))]
        text = cli._rows_to_csv(("a", "b", "c"), rows)
        uncached = "a,b,c\n" + "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)
        assert text == uncached
        assert "0.0,-0.0,0.1" in text and "-0.0,0.0,1e+300" in text

    @staticmethod
    def _per_cell(header, rows):
        return ",".join(header) + "\n" + "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)

    @pytest.mark.parametrize("rows", [
        [],
        [(0.3, -0.0, None, True, 1000)],
        [(0.0, 1.0), (-0.0, 1.0), (0.0, -0.0), (-0.0, 0.0)],  # 0.0 and -0.0 in one column
        [(math.nan, 5e-324), (-math.nan, -5e-324), (math.inf, 2.2250738585072014e-308),
         (-math.inf, 1e-310), (math.nan, 5e-324)],
        [(6.3, 0.25), (6.3, None), (6.3, 0.25)],  # a float column that holds None
        [(np.float64(0.1), 3, False), (0.1, 3, True), (np.float64(-0.0), 4, True)],
        [(1, 2.0), (1.0, 2)],  # ints and floats in one column
    ])
    def test_csv_columns_equal_per_cell_fmt(self, rows):
        header = ("a", "b", "c", "d", "e")[:len(rows[0]) if rows else 1]
        assert cli._rows_to_csv(header, rows) == self._per_cell(header, rows)

    def test_csv_grids_with_repeated_coordinates_equal_per_cell_fmt(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            xs = rng.choice([0.0, -0.0, 0.5, 1.0 / 3.0, 1e-300], rng.integers(1, 6)).tolist()
            ys = rng.normal(size=rng.integers(1, 9)).round(rng.integers(0, 17)).tolist()
            rows = [(6.283185307179586, x, y, float(v)) for x in xs for y in ys
                    for v in rng.choice([rng.normal(), math.nan, -0.0], 1)]
            assert cli._rows_to_csv(("omega", "x", "y", "sigma"), rows) == self._per_cell(
                ("omega", "x", "y", "sigma"), rows)

    def test_a_float_table_writes_what_per_cell_fmt_writes_of_its_rows(self):
        # column by column, one repr per distinct bit pattern: signed zeros, nans of both signs and
        # another payload, infinities, subnormals, repeated grid coordinates, and one-row tables
        rng = np.random.default_rng(2808)
        specials = np.array([0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310,
                             np.int64(0x7FF8000000000001).view(np.float64), 0.1])
        for k in range(80):
            shape = (1 if k % 8 == 0 else int(rng.integers(2, 40)), int(rng.integers(1, 6)))
            table = np.ldexp(rng.normal(size=shape), rng.integers(-1074, 1000, size=shape))
            special = rng.random(shape) < 0.3
            table[special] = rng.choice(specials, int(special.sum()))
            table[:, 0] = rng.choice(table[:, 0], shape[0])  # a coordinate column repeats its values
            header, rows = tuple("abcde"[:shape[1]]), table.tolist()
            assert cli._rows_to_csv(header, table) == self._per_cell(header, rows)
            assert cli._rows_to_json(header, table) == cli._rows_to_json(header, rows)

    @pytest.mark.parametrize("argv", [
        ["figure", "fig2-left"], ["figure", "fig2-right"], ["figure", "fig4-left"], ["figure", "fig4-right"],
        ["spectral-map", "--x-steps", "3", "--y-steps", "4"], ["spectral-slice", "--y-steps", "5"],
    ])
    def test_the_grids_reach_the_writer_as_float_tables(self, argv, monkeypatch, tmp_path):
        # the writer's third argument is positional, and its length is the row count
        seen, emit = [], cli._emit
        monkeypatch.setattr(cli, "_emit", lambda ns, header, rows: seen.append(rows) or emit(ns, header, rows))
        out = tmp_path / "out.csv"
        assert run([*argv, "--out", str(out)]) == 0
        [table] = seen
        assert isinstance(table, np.ndarray) and table.dtype == np.float64 and table.ndim == 2
        assert len(table) == len(out.read_text().splitlines()) - 1

    def test_a_one_row_csv_makes_no_numpy_call(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("a numpy call for one row")

        monkeypatch.setattr(cli.np, "unique", refused)
        monkeypatch.setattr(cli.np, "array", refused)
        row = (6.3, 1.2e15, 0.0, 0.0129, 0.0065, None)
        assert cli._rows_to_csv(("a", "b", "c", "d", "e", "f"), [row]) == self._per_cell(
            ("a", "b", "c", "d", "e", "f"), [row])


class TestOneParse:
    """A line that names a command is parsed once, by that command's own parser."""

    @pytest.mark.parametrize("argv", [
        ["spectral-diag", "--omega", "5.0", "--x", "0.5"],
        ["spectral-diag", "--omega", "5.0", "--x-steps=4"],  # a flag and its value in one token
        ["spectral-diag", "--omega", "5.0", "--format", "csv"],
        ["spectral-map", "--omega", "5", "--y-range", "-5e-05", "50", "--y-steps", "3", "--svg", "m.svg"],
        ["spectral-slice", "--x", "0.3", "--y-range", "-2", "-1e-1", "--format", "json"],
        ["figure", "fig4-left", "--out", "f.csv"],
        ["twopoint", "--s", "0.3", "--x", "0.4", "--y", "-8e-1", "--n-terms", "7"],
        ["bhd", "--omega-lo", "7", "--x1", ".5", "--y1", "-1e-05", "--x2", ".5", "--y2", "1", "--lo-p", "-inf"],
        [*BHD_README, "--width", "0.05", "--a-microns", "2.5E1"],
        ["validate"],
    ])
    def test_a_handler_receives_the_namespace_of_the_full_parser(self, argv, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_" + argv[0].replace("-", "_"), lambda ns: seen.append(ns) or 0)
        assert run(argv) == 0
        # what main passed on before it parsed with the command's parser alone
        assert seen == [cli.build_parser().parse_args(argv)]

    def test_a_launch_parses_once(self, monkeypatch, capsys):
        calls = []
        parse = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            calls.append(self.prog)
            return parse(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        assert run(BHD_README) == 0
        assert calls == ["cavityspectra bhd"]
        calls.clear()
        assert run(["spectral-diag", "--omega", "5.0", "--x-steps", "3"]) == 0
        assert calls == ["cavityspectra spectral-diag"]

    def test_unrecognized_arguments_name_the_command(self, capsys):
        assert run([*BHD_README, "--n-terms", "5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: cavityspectra bhd")
        assert err.endswith("cavityspectra bhd: error: unrecognized arguments: --n-terms 5\n")

    @pytest.mark.parametrize("argv", [
        ["spectral-diag", "--omega", "5.0"],
        ["spectral-map"],
        ["spectral-slice"],
        ["figure", "fig4-right"],
        ["twopoint", "--s", "0.3", "--x", "0.4"],
        BHD_README,
        ["validate"],
    ])
    def test_config_is_an_unrecognized_argument(self, argv, tmp_path, capsys):
        # every option comes from the command line: no command reads an option file
        cfg, out = tmp_path / "x.json", tmp_path / "out.csv"
        cfg.write_text(json.dumps({"x-steps": 3}))
        assert run([*argv, "--config", str(cfg), "--out", str(out)]) == 2
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"cavityspectra {argv[0]}: error: unrecognized arguments: --config {cfg}")
        assert not out.exists()

    @pytest.mark.parametrize("argv, code", [
        ([], 2),
        (["nosuch"], 2),
        (["--help"], 0),
        (["bhd", "--help"], 0),
        (["spectral-diag"], 2),  # a required flag missing
        (["figure", "fig9"], 2),  # an invalid choice
        (["spectral-diag", "--omega", "3", "--format", "xml"], 2),
    ])
    def test_usage_and_help_print_what_the_full_parser_prints(self, argv, code, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        full = capsys.readouterr()
        assert exc.value.code == code
        assert run(argv) == code
        assert capsys.readouterr() == full


class TestLeanImport:
    def test_the_parser_loads_no_module_that_only_some_commands_use(self):
        # a fresh interpreter: this one has loaded every module the other tests use
        src = os.path.dirname(os.path.dirname(cavityspectra.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        code = ("import sys; import cavityspectra.cli as c; c.build_parser(); "
                "print(' '.join(m for m in sys.argv[1:] if m in sys.modules))")
        lazy = ["fractions", "decimal", "numpy.polynomial", "json",
                "cavityspectra.bhd", "cavityspectra.oracle", "cavityspectra.svgplot"]
        done = subprocess.run([sys.executable, "-c", code, *lazy], env=env, capture_output=True,
                              text=True, timeout=60, check=True)
        assert done.stdout.split() == []

    def test_every_public_name_resolves(self):
        for name in cavityspectra.__all__:
            assert getattr(cavityspectra, name) is not None
        assert set(cavityspectra.__all__) <= set(dir(cavityspectra))
        assert cavityspectra.variance_current is cavityspectra.bhd.variance_current
        with pytest.raises(AttributeError):
            cavityspectra.no_such_name


class TestExactModeCheck:
    """validate's check 7: the kernels against the mode sum, the mode sum against the lattice."""

    def test_passes(self):
        ok, detail = oracle._check_exact_modes()
        assert ok, detail

    def test_fails_when_a_kernel_is_mutated(self, monkeypatch):
        coeffs, _ = spectral._Q

        def flipped_cos(u, s, c):  # Q with the sign of its cos term flipped
            return s / u - c / (u * u) - s / (u * u * u)

        monkeypatch.setattr(spectral, "_Q", (coeffs, flipped_cos))
        ok, detail = oracle._check_exact_modes()
        assert not ok, detail

    def test_fails_when_the_lattice_is_mutated(self, monkeypatch):
        lattice = oracle.two_point_yy_lattice
        monkeypatch.setattr(oracle, "two_point_yy_lattice", lambda *args: lattice(*args) * (1.0 + 1e-10))
        ok, detail = oracle._check_exact_modes()
        assert not ok, detail

    def test_fails_when_the_smear_over_the_modes_drops_its_first_moment(self, monkeypatch):
        # R(1,1) without its 2 omega_lo M1 term, M1 = (width^2/2) e^{-c^2/width^2}
        modes = oracle.smeared_modes_diag

        def without_m1(w0, w, x, geometry):
            q = np.arange(1, spectral._mode_count(w0 + 10.0 * w, geometry) + 1) * math.pi / geometry.a
            s2 = spectral._sine_squares(np.array([min(x, geometry.a - x)]), q)
            m1 = 0.5 * w * w * np.exp(-((q - w0) / w) ** 2)
            return modes(w0, w, x, geometry) - float(np.sum(s2[0] * 2.0 * w0 * m1)) / (4.0 * math.pi * geometry.a)

        monkeypatch.setattr(oracle, "smeared_modes_diag", without_m1)
        ok, detail = oracle._check_exact_modes()
        assert not ok, detail
