import json
import math
import os

import numpy as np
import pytest

from cavityspectra import cli, spectral
from cavityspectra.cli import main
from cavityspectra.imagesum import TruncationPolicy
from cavityspectra.spectral import sigma_vacuum, sigma_yy, sigma_yy_diag
from cavityspectra.units import CavityGeometry, FieldPoint

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
        # 3000 image pairs make a block of 43 points, so each 51-point row spans
        # two blocks; the rows include y = 0 and the plates x = 0 and x = 1
        n_terms, omega = 3000, 7.3
        ys = np.linspace(-5.0, 5.0, 51)
        assert spectral._BLOCK_ELEMENTS // n_terms < ys.size and 0.0 in ys
        for accelerate in (False, True):
            policy = TruncationPolicy(n_terms=n_terms, accelerate=accelerate)
            common = ["--omega", str(omega), "--y-range", "-5", "5", "--y-steps", "51",
                      "--n-terms", str(n_terms)] + (["--accelerate"] if accelerate else [])
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

    def test_spectral_diag_rows_equal_single_points(self, tmp_path):
        # one density call over the x grid gives each x's single-point bits
        out = tmp_path / "diag.csv"
        assert run(["spectral-diag", "--omega", "2.1", "--x-steps", "41", "--n-terms", "300",
                    "--accelerate", "--out", str(out)]) == 0
        policy = TruncationPolicy(n_terms=300, accelerate=True)
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
            if w < math.pi - 0.01:  # plateau clear of the jump's transition layer
                assert nd == pytest.approx(-1.0, abs=0.01)

    def test_fig2_right_svg_smoke(self, tmp_path):
        out = tmp_path / "f2r.csv"
        svg = tmp_path / "f2r.svg"
        assert run(["figure", "fig2-right", "--out", str(out), "--svg", str(svg),
                    "--n-terms", "100"]) == 0
        assert svg.read_text().startswith("<svg")
        assert out.read_text().splitlines()[0] == "omega,x,y,ratio"

    def test_figure_recipe_cutoff_can_be_overridden(self, tmp_path):
        out = tmp_path / "f2l.csv"
        assert run(["figure", "fig2-left", "--out", str(out), "--n-terms", "30"]) == 0
        assert out.read_text().splitlines()[1].split(",")[5] == "30"


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

    def test_bhd_below_dispersion_omits_residual(self, tmp_path, capsys):
        out = tmp_path / "bhd.csv"
        assert run(["bhd", "--omega-lo", "2.0", "--x1", "0.5", "--y1", "0",
                    "--x2", "0.5", "--y2", "10", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].endswith(",")
        assert "no running mode" in capsys.readouterr().err


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

    def test_config_keys_may_be_spelt_with_dashes(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n-terms": 40, "accelerate": True}))
        via_config, via_flags = tmp_path / "c.csv", tmp_path / "f.csv"
        assert run(["spectral-diag", "--omega", "5.0", "--x-steps", "3", "--config", str(cfg),
                    "--out", str(via_config)]) == 0
        assert run(["spectral-diag", "--omega", "5.0", "--x-steps", "3", "--n-terms", "40",
                    "--accelerate", "--out", str(via_flags)]) == 0
        assert via_config.read_bytes() == via_flags.read_bytes()

    @pytest.mark.parametrize("argv, key", [
        (["spectral-diag", "--omega", "5.0", "--x", "0.5"], "n_terms_typo"),
        (["spectral-diag", "--omega", "5.0", "--x", "0.5"], "a-microns"),  # a flag of bhd only
        (["figure", "fig4-right", "--out", os.devnull], "name"),  # an argument, not a flag
        (["twopoint", "--s", "0.3", "--x", "0.4"], "func"),
        (["validate", "--quick"], "n_terms"),
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
    ])
    def test_invalid_values_exit_two_with_one_line(self, argv, tmp_path, capsys):
        out, svg = tmp_path / "out.csv", tmp_path / "out.svg"
        argv = [str(svg) if a == "SVG" else a for a in argv] + ["--out", str(out)]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("argument error: ")
        assert err.count("\n") == 1
        assert not out.exists() and not svg.exists()

    @pytest.mark.parametrize("argv", [
        ["validate", "--n-terms", "5"],
        ["validate", "--accelerate"],
        ["validate", "--format", "json"],
        ["validate"],  # --out, appended below
        ["figure", "fig4-right", "--a-microns", "3"],
        ["spectral-diag", "--omega", "5.0", "--x", "0.5", "--a-microns", "3"],
        ["twopoint", "--s", "0.3", "--x", "0.4", "--accelerate"],
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
        cfg.write_text(json.dumps({"n-terms": 40, "accelerate": True}))
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

    def test_validate_quick_passes(self, capsys):
        assert run(["validate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "9/9 validation checks passed" in out
        assert "FAIL" not in out
