import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import cavityspectra
from cavityspectra import cli, oracle, spectral
from cavityspectra.cli import main
from cavityspectra.imagesum import TruncationPolicy
from cavityspectra.spectral import (
    _sigma_diag_values,
    sigma_modes,
    sigma_modes_diag,
    sigma_vacuum,
    sigma_yy,
    sigma_yy_diag,
)
from cavityspectra.units import CavityGeometry, FieldPoint, build_grid, near_discontinuity

G = CavityGeometry(1.0)
BHD_README = ["bhd", "--omega-lo", "6.283185307179586", "--x1", "0.75", "--y1", "0",
              "--x2", "0.75", "--y2", "50"]


def run(argv):
    return main(list(argv))


class TestDensityCommands:
    def test_spectral_diag_flags_sub_cutoff(self, tmp_path, capsys):
        out = tmp_path / "diag.csv"
        assert run(["spectral-diag", "--omega", "2", "--x", "0.5", "--out", str(out)]) == 0
        header, row = out.read_text().splitlines()
        assert header == "omega,x,y,sigma,err,n_terms,sub_cutoff"
        fields = row.split(",")
        assert fields[-1] == "true"
        assert abs(float(fields[3])) < 0.05 * sigma_vacuum(2.0, 0.0)

    def test_density_columns_are_the_contract(self, tmp_path):
        out = tmp_path / "map.csv"
        assert run(["spectral-map", "--x-steps", "3", "--y-steps", "5",
                    "--n-terms", "50", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,x,y,sigma,err,n_terms"
        assert len(lines) == 1 + 3 * 5
        assert all(line.split(",")[5] == "50" for line in lines[1:])

    def test_map_notes_the_discontinuity(self, tmp_path, capsys):
        out = tmp_path / "map.csv"
        run(["spectral-map", "--x-steps", "2", "--y-steps", "2", "--n-terms", "20", "--out", str(out)])
        assert "discontinuity" in capsys.readouterr().err

    def test_slice_emits_normalized_ratio(self, tmp_path):
        out = tmp_path / "slice.csv"
        assert run(["spectral-slice", "--omega", "5.0", "--x", "0.75", "--y-range", "-2", "2",
                    "--y-steps", "5", "--n-terms", "100", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,x,y,ratio"
        middle = lines[3].split(",")  # y = 0 row: ratio is identically 1
        assert float(middle[3]) == 1.0

    def test_slice_notes_a_residual_normalization(self, tmp_path, capsys):
        # next to the far plate the N = 1000 coincident density is smaller than its err
        out = tmp_path / "slice.csv"
        assert run(["spectral-slice", "--omega", "5", "--x", "0.9999", "--y-range", "-1", "1",
                    "--y-steps", "3", "--out", str(out)]) == 0
        diag = sigma_yy_diag(5.0, 0.9999, G, TruncationPolicy(n_terms=1000))
        assert abs(diag.value) <= diag.err
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("note: ")
        assert all(part in err for part in ("x = 0.9999", "omega = 5 ", f"is {diag.value:.3g},",
                                            f"err = {diag.err:.3g}"))
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[3] for row in rows] == [
            repr(sigma_yy(5.0, FieldPoint(x=0.9999, y=y), G, TruncationPolicy(n_terms=1000)).value
                 / diag.value) for y in (-1.0, 0.0, 1.0)]

        assert run(["figure", "fig2-right", "--out", str(tmp_path / "f2r.csv")]) == 0
        err = capsys.readouterr().err
        assert "truncation" not in err and err.count("\n") == 1  # the jump note alone

    def test_blocked_grid_matches_per_point_values(self, tmp_path):
        # at 3000 image pairs one block holds 3 distinct y^2 (3 n + 2 image bases
        # each), so the 25 distinct y^2 > 0 of each x's 51-point row span nine
        # blocks; the rows include y = 0 and the plates x = 0 and x = 1
        n_terms, omega = 3000, 7.3
        ys = np.linspace(-5.0, 5.0, 51)
        assert spectral._CACHE_ELEMENTS // (3 * n_terms + 2) == 3 and 0.0 in ys
        policy = TruncationPolicy(n_terms=n_terms)
        common = ["--omega", str(omega), "--y-range", "-5", "5", "--y-steps", "51", "--n-terms", str(n_terms)]
        assert run(["spectral-map", "--x-steps", "3", *common,
                    "--out", str(tmp_path / "map.csv")]) == 0
        assert run(["spectral-slice", "--x", "0.75", *common,
                    "--out", str(tmp_path / "slice.csv")]) == 0

        rows = [line.split(",") for line in (tmp_path / "map.csv").read_text().splitlines()[1:]]
        assert len(rows) == 3 * ys.size
        for row in rows:
            x, y = float(row[1]), float(row[2])
            want = sigma_yy(omega, FieldPoint(x=x, y=y), G, policy)
            assert row[3:5] == [repr(want.value), repr(want.err)]
            if y == 0.0:
                diag = sigma_yy_diag(omega, x, G, policy)
                assert row[3:5] == [repr(diag.value), repr(diag.err)]

        diagonal = sigma_yy_diag(omega, 0.75, G, policy).value
        rows = [line.split(",") for line in (tmp_path / "slice.csv").read_text().splitlines()[1:]]
        assert [row[3] for row in rows] == [
            repr(sigma_yy(omega, FieldPoint(x=0.75, y=float(y)), G, policy).value / diagonal)
            for y in ys]

    @pytest.mark.parametrize("argv", [
        ["spectral-map", "--x-steps", "4", "--y-range", "-2", "2", "--y-steps", "5"],
        ["spectral-slice", "--x", "0.3", "--y-range", "-2", "2", "--y-steps", "5"],
    ])
    def test_map_and_slice_make_one_density_call(self, argv, monkeypatch, tmp_path):
        # the slice's coincident value rides along as the point (x, 0) of its row
        calls = []

        def counting(*args, engine=cli._sigma_yy_values):
            calls.append(len(args[1]))
            return engine(*args)

        def refused(*args):
            raise AssertionError("a second density call")

        monkeypatch.setattr(cli, "_sigma_yy_values", counting)
        monkeypatch.setattr(cli, "_sigma_diag_values", refused)
        assert run([*argv, "--n-terms", "40", "--out", str(tmp_path / "out.csv")]) == 0
        assert calls == ([20] if argv[0] == "spectral-map" else [6])  # 4 x 5, and 5 + 1

    def test_a_cutoff_above_the_image_cap_is_refused_before_any_evaluation(self, monkeypatch, capsys):
        def refused(*args):
            raise AssertionError("evaluated a density")

        monkeypatch.setattr(cli, "_sigma_diag_values", refused)
        for argv in (["spectral-diag", "--omega", "6.0", "--x", "0.5", "--n-terms", "10000000"],
                     ["twopoint", "--s", "0.3", "--x", "0.4", "--n-terms", str(2**20 + 1)]):
            assert run(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("argument error: cutoff ") and err.count("\n") == 1

    def test_spectral_diag_rows_equal_single_points(self, tmp_path):
        # one density call over the x grid gives each x's single-point bits
        out = tmp_path / "diag.csv"
        assert run(["spectral-diag", "--omega", "2.1", "--x-steps", "41", "--n-terms", "300",
                    "--out", str(out)]) == 0
        policy = TruncationPolicy(n_terms=300)
        rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
        assert [row[1] for row in rows] == [repr(x) for x in np.linspace(0.0, 1.0, 41).tolist()]
        for row in rows:
            s = sigma_yy_diag(2.1, float(row[1]), G, policy)
            assert row == ["2.1", row[1], "0.0", repr(s.value), repr(s.err), "300", "true"]

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

    def test_fig2_right_svg_smoke(self, tmp_path):
        out = tmp_path / "f2r.csv"
        svg = tmp_path / "f2r.svg"
        assert run(["figure", "fig2-right", "--out", str(out), "--svg", str(svg),
                    "--n-terms", "100"]) == 0
        assert svg.read_text().startswith("<svg")
        assert out.read_text().splitlines()[0] == "omega,x,y,ratio"

    def test_a_fig2_recipe_refuses_a_cutoff(self, tmp_path, capsys):
        out = tmp_path / "f2l.csv"
        assert run(["figure", "fig2-left", "--out", str(out), "--n-terms", "30"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("argument error: fig2-left draws from the exact guided-mode sum: ")
        assert err.count("\n") == 1 and not out.exists()

    def test_the_fig2_right_cutoff_can_be_overridden(self, tmp_path):
        # fig2-right is the spectral-slice recipe at 2 pi, N = 500 unless --n-terms says otherwise
        out, want = tmp_path / "f2r.csv", tmp_path / "slice.csv"
        assert run(["figure", "fig2-right", "--out", str(out), "--n-terms", "30"]) == 0
        assert run(["spectral-slice", "--omega", repr(2.0 * math.pi), "--x", "0.75", "--y-range", "-50", "50",
                    "--y-steps", "201", "--n-terms", "30", "--out", str(want)]) == 0
        assert run(["figure", "fig2-right", "--out", str(tmp_path / "default.csv")]) == 0
        assert out.read_bytes() == want.read_bytes() != (tmp_path / "default.csv").read_bytes()


class TestFig2Recipes:
    """fig2-left: the off-axis mode sum at the guard point below the jump at 2 pi."""

    def test_the_frequency_is_the_guard_point_below_two_pi(self):
        assert cli.FIG2_OMEGA == build_grid(6.0, 2.0 * math.pi - 1e-4, 2).points[-1]
        assert cli.FIG2_OMEGA < 2.0 * math.pi and not near_discontinuity(cli.FIG2_OMEGA)

    def test_left_rows_are_the_mode_sum_bit_for_bit(self, tmp_path):
        rows, xs, ys, _ = cli._fig2_left_rows()
        want = sigma_modes(cli.FIG2_OMEGA, xs, ys, G)
        assert (len(xs), len(ys)) == (21, 101) and len(rows) == want.size
        for k, row in enumerate(rows):
            i, j = divmod(k, len(ys))
            assert row == (cli.FIG2_OMEGA, xs[i], ys[j], want[i, j])
            assert all(type(v) is float for v in row)
        out = tmp_path / "f2l.csv"
        assert run(["figure", "fig2-left", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "omega,x,y,sigma"
        assert lines[1:] == [",".join(repr(v) for v in row) for row in rows]

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

    def test_left_rows_are_the_mode_sum_bit_for_bit(self):
        rows, omegas, xs, _ = cli._fig4_left_rows()
        vac = sigma_vacuum(omegas, 0.0)
        want = [((sigma_modes_diag(omegas, x, G) - vac) / vac).tolist() for x in xs.tolist()]
        assert len(rows) == omegas.size * xs.size
        for k, (w, x, nd) in enumerate(rows):
            j, i = divmod(k, xs.size)
            assert (w, x, nd) == (omegas[j], xs[i], want[i][j])
            assert type(w) is type(x) is type(nd) is float

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
        assert variance == approx == "5.788430355070876"
        assert captured.err == ""

    @pytest.mark.parametrize("argv", [
        ["bhd", "--omega-lo", "2.0", "--x1", "0.5", "--y1", "0", "--x2", "0.5", "--y2", "10"],
        [*BHD_README, "--lo-p", "1e200"],  # finite, beyond the dispersion
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


class TestPlumbing:
    def test_config_file_supplies_defaults_and_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_terms": 40, "x_steps": 3}))
        out = tmp_path / "d.csv"
        run(["spectral-diag", "--omega", "5.0", "--config", str(cfg),
             "--x-steps", "4", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert len(lines) == 1 + 4  # flag wins over config
        assert lines[1].split(",")[5] == "40"  # config supplies the cutoff

    def test_an_abbreviated_flag_wins_over_the_config(self, tmp_path):
        # argparse reads --x-st as --x-steps, so the flag, not the config, sets the grid
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"x-steps": 3}))
        out = tmp_path / "d.csv"
        assert run(["spectral-diag", "--omega", "5.0", "--x-st", "4", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 1 + 4

    def test_config_keys_may_be_spelt_with_dashes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-terms": 40, "x-steps": 3}))
        via_config, via_flags = tmp_path / "c.csv", tmp_path / "f.csv"
        assert run(["spectral-diag", "--omega", "5.0", "--config", str(cfg),
                    "--out", str(via_config)]) == 0
        assert run(["spectral-diag", "--omega", "5.0", "--x-steps", "3", "--n-terms", "40",
                    "--out", str(via_flags)]) == 0
        assert via_config.read_bytes() == via_flags.read_bytes()

    def test_config_values_are_converted_as_flags_are(self, tmp_path):
        # numbers and numeric strings go through each flag's type, as their command-line text would
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"omega": 5, "x-steps": "2", "y-range": [-2, "2.5"], "y-steps": 3,
                                   "n-terms": 40, "format": "json"}))
        via_config, via_flags = tmp_path / "c.json", tmp_path / "f.json"
        assert run(["spectral-map", "--config", str(cfg), "--out", str(via_config)]) == 0
        assert run(["spectral-map", "--omega", "5", "--x-steps", "2", "--y-range", "-2", "2.5", "--y-steps", "3",
                    "--n-terms", "40", "--format", "json", "--out", str(via_flags)]) == 0
        assert via_config.read_bytes() == via_flags.read_bytes()

    @pytest.mark.parametrize("argv, config, message", [
        (["spectral-diag", "--omega", "3"], {"x-steps": "a"}, "config key 'x-steps': invalid int value 'a'"),
        (["spectral-diag", "--omega", "3"], {"n-terms": 2.5}, "config key 'n-terms': invalid int value 2.5"),
        (["spectral-map"], {"y-range": [1]}, "config key 'y-range' takes a list of 2 strings or numbers, got [1]"),
        (["spectral-slice"], {"x": None}, "config key 'x' takes a string or a number, got None"),
        (["spectral-diag", "--omega", "3"], {"format": "xml"},
         "config key 'format' must be one of 'csv', 'json', got 'xml'"),
        (["spectral-diag", "--omega", "3"], {"x-steps": True},
         "config key 'x-steps' takes a string or a number, got True"),
    ])
    def test_config_values_a_flag_would_refuse_are_argument_errors(self, argv, config, message, tmp_path, capsys):
        cfg, out = tmp_path / "cfg.json", tmp_path / "out.csv"
        cfg.write_text(json.dumps(config))
        assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr() == ("", f"argument error: {message}\n")
        assert not out.exists()

    @pytest.mark.parametrize("argv, key", [
        (["spectral-diag", "--omega", "5.0", "--x", "0.5"], "n_terms_typo"),
        (["spectral-diag", "--omega", "5.0", "--x", "0.5"], "a-microns"),  # a flag of bhd only
        (["figure", "fig4-right", "--out", os.devnull], "name"),  # an argument, not a flag
        (["twopoint", "--s", "0.3", "--x", "0.4"], "func"),
        (["validate"], "n_terms"),
        (["spectral-diag", "--omega", "5.0", "--x", "0.5"], "help"),
        (["spectral-diag", "--omega", "5.0", "--x", "0.5"], "accelerate"),  # no density takes an accelerated mean
    ])
    def test_config_keys_without_a_flag_are_argument_errors(self, argv, key, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: 5}))
        assert run(argv + ["--config", str(cfg)]) == 2
        assert capsys.readouterr() == ("", f"argument error: config key {key!r} is not an option of {argv[0]}\n")

    @pytest.mark.parametrize("argv, scientific, decimal", [
        (["bhd", "--omega-lo", "7", "--x1", ".5", "--y1", "SCI", "--x2", ".5", "--y2", "1"],
         "-1e-05", "-0.00001"),
        (["bhd", "--omega-lo", "7", "--x1", ".5", "--y1", "0", "--x2", ".5", "--y2", "SCI"],
         "-2.5E-1", "-0.25"),
        (["spectral-map", "--omega", "5", "--x-steps", "2", "--y-range", "SCI", "50",
          "--y-steps", "3", "--n-terms", "40"], "-5e-05", "-0.00005"),
        (["spectral-slice", "--omega", "5", "--x", "0.3", "--y-range", "-2", "SCI",
          "--y-steps", "3", "--n-terms", "40"], "-1e-1", "-0.1"),
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
        ["spectral-diag", "--omega", "5.0", "--n-terms", "-3"],
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
        # offsets whose square overflows
        ["spectral-map", "--y-range", "-1e300", "1e300", "--x-steps", "2", "--y-steps", "2"],
        ["spectral-slice", "--x", "0.5", "--y-range", "1e200", "1e200", "--y-steps", "1"],
        ["spectral-map", "--omega", "6", "--y-range", "1e160", "1e160", "--x-steps", "2", "--y-steps", "1"],
        # fig2-left and the fig4 recipes draw from the exact mode sum, which has no cutoff to set
        ["figure", "fig4-left", "--n-terms", "10", "--svg", "SVG"],
        ["figure", "fig2-left", "--n-terms", "500", "--svg", "SVG"],
        [*BHD_README, "--y1", "-inf"],  # read as a value, not as a flag
        # grid ranges with an infinite bound or a span that overflows
        ["spectral-map", "--y-range", "0", "inf", "--x-steps", "2", "--y-steps", "2", "--svg", "SVG"],
        ["spectral-slice", "--y-range", "-1.7e308", "1.7e308", "--y-steps", "3"],
        ["spectral-map", "--y-range", "-inf", "5"],
    ])
    @pytest.mark.filterwarnings("error")  # a warning would print lines of its own outside the test
    def test_invalid_values_exit_two_with_one_line(self, argv, tmp_path, capsys):
        out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
        argv = [str(svg) if a == "SVG" else a for a in argv] + ["--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("argument error: ")
        assert err.count("\n") == 1
        assert not out.exists() and not svg.exists()

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

    def test_a_sequence_of_calls_prints_what_each_call_prints_alone(self, tmp_path, capsys):
        # one parser serves every call of a process: no call may leave state for the next
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-terms": 40, "format": "json"}))
        narrow = tmp_path / "narrow.json"
        narrow.write_text(json.dumps({"width": 0.05}))
        calls = [
            BHD_README,
            ["spectral-diag", "--omega", "5.0", "--x-steps", "3", "--config", str(cfg)],
            ["spectral-diag", "--omega", "5.0", "--x-steps", "3"],  # the config's values do not stay
            ["spectral-diag"],  # usage error: --omega missing
            [*BHD_README, "--n-terms", "5"],  # usage error: a flag bhd does not read
            ["twopoint", "--s", "0.3", "--x", "0.4", "--y", "0.8", "--format", "json"],
            ["spectral-map", "--x-steps", "2", "--y-steps", "3", "--n-terms", "20"],
            ["bhd", "--omega-lo", "7", "--x1", ".5", "--y1", "0", "--x2", ".5", "--y2", "1",
             "--config", str(narrow)],
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

    def test_csv_text_caches_float_reprs_byte_for_byte(self):
        # repeated floats share one repr; 0.0 and -0.0 compare equal but print apart
        cells = [0.0, -0.0, 0.1, 0.1, -0.0, 0.0, 1e300, math.nan, math.nan, -math.inf, 3, None, True,
                 np.float64(-0.0), 5e-324, -5e-324, 2.5, 2.5]
        rows = [tuple(cells[k:k + 3]) for k in range(len(cells) - 2)] + [tuple(reversed(cells))]
        text = cli._rows_to_csv(("a", "b", "c"), rows)
        uncached = "a,b,c\n" + "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)
        assert text == uncached
        assert "0.0,-0.0,0.1" in text and "-0.0,0.0,1e+300" in text


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
