import json
import math

import pytest

from cavityspectra.cli import main
from cavityspectra.spectral import sigma_vacuum


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

    def test_worker_pool_is_deterministic(self, tmp_path, monkeypatch):
        args = ["spectral-map", "--x-steps", "4", "--y-steps", "7", "--n-terms", "80"]
        monkeypatch.setenv("CAVITYSPECTRA_WORKERS", "1")
        run(args + ["--out", str(tmp_path / "w1.csv")])
        monkeypatch.setenv("CAVITYSPECTRA_WORKERS", "4")
        run(args + ["--out", str(tmp_path / "w4.csv")])
        assert (tmp_path / "w1.csv").read_bytes() == (tmp_path / "w4.csv").read_bytes()

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
                    "--x2", "0.75", "--y2", "50", "--n-terms", "100", "--out", str(out)])
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
                    "--x2", "0.5", "--y2", "10", "--n-terms", "60", "--out", str(out)]) == 0
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

    def test_argument_errors_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            run(["spectral-diag"])  # --omega missing
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv", [
        ["bhd", "--omega-lo", "6.283185307179586", "--x1", "0.75", "--y1", "0",
         "--x2", "0.5", "--y2", "50"],
        ["spectral-diag", "--omega", "-1"],
        ["spectral-diag", "--omega", "5.0", "--x", "2"],
        ["spectral-diag", "--omega", "5.0", "--n-terms", "-3"],
    ])
    def test_invalid_values_exit_two_with_one_line(self, argv, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("argument error: ")
        assert err.count("\n") == 1

    def test_io_failure_exits_four(self):
        assert run(["twopoint", "--s", "0.3", "--x", "0.4",
                    "--out", "/nonexistent-dir/x.csv"]) == 4

    def test_validate_quick_passes(self, capsys):
        assert run(["validate", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "9/9 validation checks passed" in out
        assert "FAIL" not in out
