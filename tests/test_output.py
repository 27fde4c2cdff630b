"""Deterministic serialization: byte identity and lossless round trips."""

import csv
import json

import numpy as np
import pytest
from hypothesis import given, strategies as st

from relaydyn import cli, relay
from relaydyn.output import (_fmt, family_records, write_csv, write_json,
                             write_json_lines, write_manifest)


def per_row_trajectory_csv(traj) -> bytes:
    """The trajectory table one row at a time, from scalar evaluations."""
    lines = ["t,x,xdot,u"]
    for t in np.linspace(0.0, traj.T, 2001).tolist():
        y = traj(t)
        lines.append(",".join([repr(t), repr(float(y[0])), repr(float(y[1])),
                               str(traj.u_at(t))]))
    return ("\n".join(lines) + "\n").encode()


@pytest.mark.parametrize("history", ["constant", "random", "collision"])
def test_trajectory_csv_matches_the_per_row_writer(tmp_path, monkeypatch, history):
    trajs, run = [], relay.evolve

    def evolve(*args, **kwargs):
        state, traj = run(*args, **kwargs)
        trajs.append(traj)
        return state, traj

    monkeypatch.setattr(relay, "evolve", evolve)
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({"horizon": 60.0, "history": history}))
    out = tmp_path / "o"
    assert cli.main(["simulate", "--config", str(cfg), "--seed", "3",
                     "--out", str(out)]) == 0
    (traj,) = trajs
    assert len(traj.segments) > 5
    assert (out / "trajectory.csv").read_bytes() == per_row_trajectory_csv(traj)


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_float_format_round_trips_exactly(x):
    assert float(_fmt(x)) == x


def test_fmt_bool_and_int():
    assert _fmt(True) == "1" and _fmt(False) == "0"
    assert _fmt(np.bool_(True)) == "1"
    assert _fmt(7) == "7" and _fmt(np.int64(-3)) == "-3"


def test_write_csv_is_byte_deterministic(tmp_path):
    rows = [(0.1, 2, True), (1.0 / 3.0, -5, False)]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    write_csv(a, ["x", "n", "flag"], rows)
    write_csv(b, ["x", "n", "flag"], rows)
    assert a.read_bytes() == b.read_bytes()
    with open(a) as fh:
        parsed = list(csv.DictReader(fh))
    assert float(parsed[1]["x"]) == 1.0 / 3.0
    assert parsed[0]["flag"] == "1"


def test_write_json_sorted_and_arrays(tmp_path):
    path = write_json(tmp_path / "o.json", {"b": np.arange(3), "a": np.float64(0.5)})
    text = path.read_text()
    assert text.index('"a"') < text.index('"b"')
    assert text.endswith("\n")
    assert json.loads(text) == {"a": 0.5, "b": [0, 1, 2]}


def test_write_json_lines(tmp_path):
    path = write_json_lines(tmp_path / "o.jsonl", [{"k": 1}, {"k": 2}])
    lines = path.read_text().splitlines()
    assert [json.loads(ln)["k"] for ln in lines] == [1, 2]


def test_manifest_structure(tmp_path):
    write_manifest(tmp_path, "sweep", {"tau": 4.2}, ["sweep.csv", "marks.json"])
    data = json.loads((tmp_path / "manifest.json").read_text())
    assert set(data) == {"build", "command", "config", "outputs"}
    assert data["command"] == "sweep"
    assert data["outputs"] == ["marks.json", "sweep.csv"]  # sorted
    assert data["config"] == {"tau": 4.2}


def test_family_records_shape():
    from relaydyn.continuation import BranchPoint, Branch, FourierCurve

    n_modes = 4
    curve = FourierCurve(n_modes=n_modes,
                         r_coeffs=np.zeros(2 * n_modes + 1),
                         t_coeffs=np.zeros(2 * n_modes + 1),
                         p_coeffs=np.zeros(2 * n_modes), omega=-1.0,
                         y0=np.zeros(2), t0=0.0)
    pt = BranchPoint(w=np.zeros(FourierCurve.dim(n_modes) + 3),
                     residual_norm=1e-12, step=1e-3,
                     data={"curve": curve, "phi_star": 0.1, "tau": 4.2,
                           "alpha": -0.48, "radius": 0.0, "omega": -1.0,
                           "t0": 0.0, "error": 1e-9})
    records = family_records(Branch(points=[pt]), n_modes)
    assert len(records) == 1
    rec = records[0]
    assert rec["parameters"] == {"tau": 4.2, "alpha": -0.48}
    assert rec["n_modes"] == n_modes
    assert len(rec["unknowns"]) == FourierCurve.dim(n_modes) + 3
    assert rec["flags"]["step"] == 1e-3
