import numpy as np
import pytest

from gfrma import cli


def write_cfg(tmp_path, **kw):
    base = dict(K=6, p_a=0.3, m=120, code_rate=0.6, T=1500,
                noise_variance=0.1, system_seed=3)
    base.update(kw)
    p = tmp_path / "sys.cfg"
    p.write_text("".join(f"{k} = {v}\n" for k, v in base.items()))
    return str(p)


def test_sim_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = cli.main(["sim", "--config", cfg, "--trials", "3", "--snr-db", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "snr_db=2" in out and "bler=" in out


def test_sim_prints_the_sweep_row(tmp_path, capsys):
    # same config, seed, trials and SNR: the same rates, to sim's digits
    cfg = write_cfg(tmp_path)
    argv = ["--config", cfg, "--seed", "4", "--trials", "3", "--snr-db", "2"]
    assert cli.main(["sim", *argv]) == 0
    printed = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", *argv, "--out", str(out)]) == 0
    header, row = out.read_text().split()
    row = dict(zip(header.split(","), row.split(",")))
    assert printed["snr_db"] == row["snr_db"] == "2"
    assert printed["trials"] == row["trials"] == "3"
    for key, col in (("bler", "bler"), ("ber", "ber"), ("miss", "miss_rate"),
                     ("fa", "false_alarm_rate"),
                     ("iters", "mean_iterations")):
        assert printed[key] == f"{float(row[col]):.4g}", key


def test_sweep_command_csv(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    out = tmp_path / "sweep.csv"
    rc = cli.main(["sweep", "--config", cfg, "--trials", "3",
                   "--snr-db", "0,4", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("snr_db,trials,bler")
    assert len(lines) == 3


def test_de_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, T=6400)
    out = tmp_path / "de.csv"
    rc = cli.main(["de", "--config", cfg, "--snr-db", "-4", "--out",
                   str(out)])
    assert rc == 0
    assert "gamma_th_db=" in capsys.readouterr().out
    assert out.read_text().startswith("gamma_db,iteration,user,mi")


def test_de_command_rejects_nan_snr(tmp_path, capsys):
    # rejected before the threshold search runs and before the file opens
    cfg = write_cfg(tmp_path, T=6400)
    out = tmp_path / "de.csv"
    rc = cli.main(["de", "--config", cfg, "--snr-db", "nan", "--out",
                   str(out)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


def test_de_command_names_the_bad_grid(tmp_path, capsys):
    # the sweep's grid check: its message names the grid
    cfg = write_cfg(tmp_path, T=6400)
    out = tmp_path / "de.csv"
    rc = cli.main(["de", "--config", cfg, "--snr-db=0,5000", "--out",
                   str(out)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("error: snr_db_grid ")
    assert not out.exists()


def test_graph_dump_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path, K=3, T=100)
    out = tmp_path / "graph.txt"
    rc = cli.main(["graph-dump", "--config", cfg, "--out", str(out)])
    assert rc == 0
    rows = np.loadtxt(out, dtype=int, ndmin=2)
    assert rows.shape[1] == 3
    assert rows.min() >= 1


def test_bad_config_exit_code(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("bogus = 1\n")
    rc = cli.main(["sim", "--config", str(p)])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_prior_key_in_config_exit_code(tmp_path, capsys):
    # a bare `prior` value is a ConfigError, not a traceback
    p = tmp_path / "bad.cfg"
    p.write_text("prior = 3\n")
    rc = cli.main(["sim", "--config", str(p), "--trials", "1"])
    assert rc == 1
    assert "error: unknown config keys" in capsys.readouterr().err


def test_subcommands_reject_options_they_do_not_read(tmp_path, capsys):
    cfg = write_cfg(tmp_path, K=3, T=100)
    for argv in (["graph-dump", "--config", cfg, "--trials", "5"],
                 ["sim", "--config", cfg, "--out", str(tmp_path / "x")]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_sim_rejects_snr_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    rc = cli.main(["sim", "--config", cfg, "--trials", "1",
                   "--snr-db=-5,-4"])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
