import numpy as np
import pytest

from erasurelab.cli import main, parse_grid, read_config
from erasurelab.modem import UnreliabilityLut


def run(argv, capsys=None):
    return main(argv)


def test_parse_grid():
    assert parse_grid("15,15.5,16") == (15.0, 15.5, 16.0)
    assert parse_grid("9.0") == (9.0,)
    with pytest.raises(SystemExit):
        parse_grid("abc")


def test_read_config(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("m = 4\nn = 15  # length\nk = 7\n\nmode = fixed_tau\nfixed_tau = 2\n")
    values = read_config(str(cfg))
    assert values == {"m": 4, "n": 15, "k": 7, "mode": "fixed_tau", "fixed_tau": 2}


def test_read_config_rejects_unknown_key(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("bogus = 1\n")
    with pytest.raises(SystemExit):
        read_config(str(cfg))


def test_simulate_roundtrip(tmp_path):
    out = tmp_path / "fer.csv"
    rc = run([
        "simulate", "--m", "4", "--n", "15", "--k", "7",
        "--ebn0-grid", "9.0", "--mode", "fixed_tau", "--fixed-tau", "2",
        "--frames", "512", "--max-errors", "100000", "--seed", "3",
        "--unreliability", "exact", "--out", str(out),
    ])
    assert rc == 0
    lines = out.read_text().splitlines()
    manifest = [l for l in lines if l.startswith("#")]
    assert any("seed=3" in l for l in manifest)
    assert any("fixed_tau=2" in l for l in manifest)
    header = [l for l in lines if l.startswith("ebn0_db,")]
    assert len(header) == 1
    data = [l for l in lines if not l.startswith("#") and not l.startswith("ebn0_db")]
    assert len(data) == 1
    fields = data[0].split(",")
    assert fields[0] == "9" and fields[1] == "fixed_tau"


def test_simulate_config_file_with_override(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(
        "m = 4\nn = 15\nk = 7\nebn0_grid = 9.0\nmode = fixed_tau\n"
        "fixed_tau = 2\nmax_frames = 256\nseed = 5\nunreliability = exact\n"
        "max_errors = 100000\n"
    )
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert run(["simulate", "--config", str(cfg), "--out", str(out1)]) == 0
    # flag overrides the config file seed; results must differ
    assert run(["simulate", "--config", str(cfg), "--seed", "6", "--out", str(out2)]) == 0
    body1 = [l for l in out1.read_text().splitlines() if not l.startswith("#")]
    body2 = [l for l in out2.read_text().splitlines() if not l.startswith("#")]
    assert body1 != body2


def test_simulate_reruns_identically(tmp_path):
    args = ["simulate", "--m", "4", "--n", "15", "--k", "7", "--ebn0-grid", "9",
            "--mode", "errors_only", "--frames", "256", "--seed", "1"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert run(args + ["--max-errors", "9999", "--out", str(a), "--threads", "1"]) == 0
    assert run(args + ["--max-errors", "9999", "--out", str(b), "--threads", "3"]) == 0
    strip = lambda p: [l for l in p.read_text().splitlines() if "out=" not in l]
    assert strip(a) == strip(b)


def test_simulate_requires_grid(tmp_path):
    with pytest.raises(SystemExit):
        run(["simulate", "--m", "4", "--n", "15", "--k", "7",
             "--out", str(tmp_path / "x.csv")])


def test_predict_two_curves(tmp_path):
    out = tmp_path / "pred.csv"
    rc = run(["predict", "--m", "4", "--n", "15", "--k", "7",
              "--ebn0-grid", "8,10", "--samples", "200", "--seed", "2",
              "--out", str(out)])
    assert rc == 0
    data = [l for l in out.read_text().splitlines()
            if not l.startswith("#") and not l.startswith("ebn0_db")]
    assert len(data) == 4  # errors-only curve + adaptive curve
    taus = [int(l.split(",")[3]) for l in data]
    assert taus[0] == 0 and taus[1] == 0


@pytest.mark.parametrize("mode, extra", [
    ("errors_only", ["--fixed-tau", "0"]),
    ("adaptive", ["--fixed-tau", "3"]),
    ("gmd", ["--fixed-tau", "2"]),
    ("fixed_tau", []),
])
def test_simulate_rejects_fixed_tau_the_mode_ignores(tmp_path, capsys, mode, extra):
    """A fixed_tau that the mode would not read, or none in mode
    fixed_tau, is one `error:` line naming the mode and exit status 2."""
    out = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        run(["simulate", "--m", "4", "--n", "15", "--k", "7", "--ebn0-grid", "9",
             "--mode", mode, "--out", str(out)] + extra)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"mode {mode!r}" in err
    assert not out.exists()


def test_predict_reads_fixed_tau(tmp_path):
    """predict pins the second curve's tau to the config's fixed_tau."""
    cfg = tmp_path / "c.cfg"
    cfg.write_text("m = 4\nn = 15\nk = 7\nebn0_grid = 8,10\nfixed_tau = 3\nsamples = 200\n")
    out = tmp_path / "pred.csv"
    assert run(["predict", "--config", str(cfg), "--out", str(out)]) == 0
    data = [l for l in out.read_text().splitlines()
            if not l.startswith("#") and not l.startswith("ebn0_db")]
    assert [int(l.split(",")[3]) for l in data] == [0, 0, 3, 3]


def test_lut_command(tmp_path):
    out = tmp_path / "lut.txt"
    rc = run(["lut", "--qam", "256", "--bits", "8", "--ebn0", "18",
              "--n", "255", "--k", "144", "--out", str(out)])
    assert rc == 0
    lut = UnreliabilityLut.load(out)
    assert len(lut.entries) == 320
    assert lut.M == 256


def test_lut_requires_noise_level(tmp_path):
    with pytest.raises(SystemExit):
        run(["lut", "--qam", "256", "--out", str(tmp_path / "x.txt")])


def test_strategy_command_from_file(tmp_path, capsys):
    h = np.sort(np.random.default_rng(0).uniform(0, 0.4, 15))[::-1]
    hfile = tmp_path / "h.txt"
    np.savetxt(hfile, h)
    rc = run(["strategy", str(hfile), "--m", "4", "--n", "15", "--k", "7",
              "--profile"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "exact: tau=" in out
    assert "hoeffding: tau=" in out
    assert "eps0: tau=" in out
    assert "tau,p_exact" in out


@pytest.mark.parametrize("h", [
    [0.3, 0.2, float("nan")] + [0.1] * 12,  # not finite
    [0.3, 0.2, 0.1, 0.05, 0.01],            # shorter than n
    list(np.linspace(0.3, 0.01, 20)),       # longer than n
])
def test_strategy_command_rejects_bad_vector_file(tmp_path, capsys, h):
    hfile = tmp_path / "h.txt"
    np.savetxt(hfile, h)
    with pytest.raises(SystemExit) as exc:
        run(["strategy", str(hfile), "--m", "4", "--n", "15", "--k", "7"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("content", [None, "abc\n", "0.1 0.2\n0.3\n"])
def test_strategy_command_rejects_unreadable_vector_file(tmp_path, capsys, content):
    """A missing file, a non-number and a ragged file are one `error:`
    line and exit status 2, not a traceback."""
    hfile = tmp_path / "h.txt"
    if content is not None:
        hfile.write_text(content)
    with pytest.raises(SystemExit) as exc:
        run(["strategy", str(hfile), "--m", "4", "--n", "15", "--k", "7"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_strategy_command_sampled(capsys):
    rc = run(["strategy", "--m", "4", "--n", "15", "--k", "7",
              "--sample", "9.0", "--seed", "4", "--strategy", "exact"])
    assert rc == 0
    out = capsys.readouterr().out
    assert out.startswith("exact: tau=")


def test_strategy_profile_at_20_db_has_no_zero_p(capsys):
    """On the default RS(256;255,144) at 20 dB most P(tau) lie far below
    1e-16, and every one is positive, since each is read from a tail mass."""
    rc = run(["strategy", "--sample", "20", "--seed", "0", "--profile"])
    assert rc == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("exact: tau=19 ")
    profile = [float(line.split(",")[1]) for line in out[out.index("tau,p_exact") + 1 :]]
    assert len(profile) == 112
    assert min(profile) > 0
    assert sum(p < 1e-16 for p in profile) >= 80


@pytest.mark.parametrize("argv", [
    ["strategy", "--m", "5", "--n", "31", "--k", "15", "--sample", "9"],  # no GF(32)
    ["strategy", "--m", "4", "--n", "20", "--k", "7", "--sample", "9"],  # n > q - 1
    ["strategy", "--m", "4", "--n", "15", "--k", "7", "--decoder", "irs", "--ell", "0",
     "--sample", "9"],
    ["lut", "--qam", "16", "--ebn0", "9", "--n", "15", "--k", "20", "--out", "x"],  # k > n
    ["lut", "--qam", "16", "--bits", "14", "--ebn0", "9", "--out", "x"],  # 384 MB table
], ids=["field", "code", "ell", "rate", "bits"])
def test_bad_parameters_are_errors_not_tracebacks(capsys, argv):
    """strategy and lut report a bad parameter as simulate and predict do:
    one `error:` line and exit status 2."""
    with pytest.raises(SystemExit) as exc:
        run(argv)
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("error: ")
