import pytest

from machstem.config import case_from_config, defaults, dump_config, parse_config
from machstem.errors import ConfigError


def test_defaults_complete():
    cfg = defaults()
    assert cfg["case.mach"] == 3.0
    assert cfg["case.coarse_grid"] == (200, 100)
    assert cfg["solver.fine_order"] == 4
    assert cfg["solver.background_flux"] == "lax_friedrichs"
    assert cfg["solver.overset_flux"] == "slau2"
    assert cfg["overset.fringe_width"] == 1


def test_overrides_win_over_file(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[case]\nmach = 4.0\nwedge_angle_deg = 27\n"
                   "[solver]\ncfl = 0.25\n")
    cfg = parse_config(str(ini), overrides={"case.mach": "3.5"})
    assert cfg["case.mach"] == 3.5            # override beats file
    assert cfg["case.wedge_angle_deg"] == 27.0  # file beats default
    assert cfg["solver.cfl"] == 0.25


def test_unknown_key_rejected(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[case]\nmach = 3\nwedge_anlge_deg = 24\n")
    with pytest.raises(ConfigError, match="wedge_anlge_deg"):
        parse_config(str(ini))
    with pytest.raises(ConfigError, match="unknown config key"):
        parse_config(None, overrides={"case.nope": "1"})


def test_bad_value_names_key():
    with pytest.raises(ConfigError, match="case.mach"):
        parse_config(None, overrides={"case.mach": "fast"})
    with pytest.raises(ConfigError, match="out of range"):
        parse_config(None, overrides={"solver.cfl": "-1"})
    with pytest.raises(ConfigError, match="case.init"):
        parse_config(None, overrides={"case.init": "warm"})


def test_grid_parsing():
    cfg = parse_config(None, overrides={"case.coarse_grid": "120x60"})
    assert cfg["case.coarse_grid"] == (120, 60)
    with pytest.raises(ConfigError):
        parse_config(None, overrides={"case.coarse_grid": "120by60"})


def test_grids_need_three_columns():
    """The inlet section, the wedge and the section behind it each get a
    column; with fewer the channel grid would silently drop the inlet."""
    for key in ("case.coarse_grid", "case.fine_background_grid",
                "case.overset_grid"):
        assert parse_config(None, overrides={key: "3x1"})[key] == (3, 1)
        with pytest.raises(ConfigError, match=key):
            parse_config(None, overrides={key: "2x4"})


def test_dump_roundtrip(tmp_path):
    cfg = parse_config(None, overrides={"case.wedge_angle_deg": "24",
                                        "sweep.angles_deg": "21.0,19.6"})
    path = tmp_path / "dump.ini"
    path.write_text(dump_config(cfg))
    back = parse_config(str(path))
    assert back == cfg


def test_case_from_config():
    cfg = parse_config(None, overrides={"case.mach": "4",
                                        "case.wedge_angle_deg": "27",
                                        "case.overset_grid": "64x48"})
    case = case_from_config(cfg)
    assert case.mach == 4.0
    assert case.wedge_angle_deg == 27.0
    assert case.overset_grid == (64, 48)
