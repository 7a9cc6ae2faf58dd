import dataclasses
from pathlib import Path

import numpy as np
import pytest

from cavityspectra import oracle
from cavityspectra.cli import main
from cavityspectra.units import CavityGeometry

NAMES = [
    "vacuum diagonal closed form",
    "vacuum embedding of the image sum",
    "boundary zeros at the plates",
    "sub-cutoff vanishing",
    "off-diagonal decay at large |y|",
    "two-point closed form vs stencil",
    "exact mode sum on and off the axis",
    "image-sum convergence table",
    "suppression dips below -3 dB",
]
CHECKS = dict(oracle.CHECKS)


def test_the_checks_are_listed_in_the_order_validate_prints_them():
    assert [name for name, _ in oracle.CHECKS] == NAMES


def test_validate_prints_one_line_per_check_then_the_tally(capsys):
    assert main(["validate"]) == 0
    out = capsys.readouterr().out
    lines = [line for line in out.splitlines() if line.startswith("[")]
    assert [line.split(": ", 1)[0] for line in lines] == [f"[PASS] {name}" for name in NAMES]
    assert out.endswith("9/9 validation checks passed\n")


def test_validate_prints_the_pinned_bytes(capsys):
    # tests/baselines/validate.txt holds what validate printed before check 6 moved to N = oo
    assert main(["validate"]) == 0
    assert capsys.readouterr().out.encode() == (Path(__file__).parent / "baselines" / "validate.txt").read_bytes()


@pytest.mark.parametrize("name", NAMES)
def test_each_check_passes_with_a_detail(name):
    ok, detail = CHECKS[name]()
    assert ok, detail
    assert isinstance(detail, str) and detail


def _scaled(fn, factor):
    return lambda *args, **kwargs: fn(*args, **kwargs) * factor


def _plates_moved_inward(monkeypatch):
    diag = oracle._sigma_diag_values
    monkeypatch.setattr(oracle, "_sigma_diag_values", lambda ws, xs, g, p: diag(ws, [abs(x - 0.01) for x in xs], g, p))


def _a_wider_cavity(monkeypatch):
    # twice the plate separation: the cutoff drops to pi/2, below the checked frequencies
    diag = oracle._sigma_diag_values
    monkeypatch.setattr(oracle, "_sigma_diag_values", lambda ws, xs, g, p: diag(ws, xs, CavityGeometry(2.0 * g.a), p))


def _no_decay_in_y(monkeypatch):
    modes = oracle.sigma_modes
    monkeypatch.setattr(oracle, "sigma_modes", lambda w, xs, ys, g: modes(w, xs, [0.0] * len(ys), g))


def _a_table_that_stops_converging(monkeypatch):
    density, rows = oracle.sigma_yy, []

    def last_row_repeats_the_first(omega, point, geometry, policy):
        rows.append(density(omega, point, geometry, policy))
        return dataclasses.replace(rows[-1], value=rows[0].value) if policy.n_terms == 10000 else rows[-1]

    monkeypatch.setattr(oracle, "sigma_yy", last_row_repeats_the_first)


def _a_shallow_dip(monkeypatch):
    fig4 = oracle._fig4_right_rows

    def clipped():
        table, *rest = fig4()
        return (np.column_stack((table[:, 0], np.maximum(table[:, 1:], -2.0))), *rest)

    monkeypatch.setattr(oracle, "_fig4_right_rows", clipped)


# check 7's mutations are in test_cli.py::TestExactModeCheck; each mutation listed must fail its check alone
MUTATIONS = {
    "vacuum diagonal closed form":
        (lambda mp: mp.setattr(oracle, "sigma_vacuum", _scaled(oracle.sigma_vacuum, 1.0 + 1e-10)),),
    "vacuum embedding of the image sum":
        (lambda mp: mp.setattr(oracle, "sigma_vacuum_from_kernels",
                               _scaled(oracle.sigma_vacuum_from_kernels, 1.0 + 1e-10)),),
    "boundary zeros at the plates": (_plates_moved_inward,),
    "sub-cutoff vanishing": (_a_wider_cavity,),
    "off-diagonal decay at large |y|": (_no_decay_in_y,),
    "two-point closed form vs stencil": (
        lambda mp: mp.setattr(oracle, "two_point_yy_fd", _scaled(oracle.two_point_yy_fd, 1.0 + 1e-3)),
        lambda mp: mp.setattr(oracle, "two_point_yy_lattice", _scaled(oracle.two_point_yy_lattice, 1.0 + 1e-3)),
    ),
    "image-sum convergence table": (_a_table_that_stops_converging,),
    "suppression dips below -3 dB": (_a_shallow_dip,),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_each_check_fails_on_a_mutated_quantity(name, monkeypatch):
    for mutate in MUTATIONS[name]:
        with monkeypatch.context() as mp:
            mutate(mp)
            ok, detail = CHECKS[name]()
        assert not ok, detail
        assert isinstance(detail, str) and detail


def test_a_failing_check_fails_validate_by_name(monkeypatch, capsys):
    _a_shallow_dip(monkeypatch)
    assert main(["validate"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] suppression dips below -3 dB: deepest suppression -2.00 dB" in out
    assert out.endswith("8/9 validation checks passed\n")
