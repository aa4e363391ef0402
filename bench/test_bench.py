"""Self-tests of the benchmark: python3 -m pytest bench/test_bench.py -q

They cover the span arithmetic, the failure accounting of the oracles and a
short smoke run of every workload, untraced and traced.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads
from workloads import WORKLOADS, Verdict

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _span(name, start, end, parent, attrs=None):
    return [name, start, end, parent, attrs]


def test_self_time_subtracts_the_time_children_cover():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("a.x", 2.0, 3.0, 1),
        _span("b", 5.0, 6.0, 0),
        _span("c", 9.5, 11.0, 0),    # runs past its parent: only 0.5 is covered
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 3 - 1 - 0.5, 2.0, 1.0, 1.0, 1.5])
    totals = spans.summarize(tree)
    assert totals["self:root"] == pytest.approx(5500.0)
    assert totals["ms:root"] == pytest.approx(10000.0)
    assert totals["n:a"] == 1


def test_overlapping_children_are_counted_once():
    tree = [_span("p", 0.0, 4.0, -1), _span("c1", 0.0, 2.0, 0), _span("c2", 1.0, 3.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_missing_target_is_reported_missing_not_zero():
    rec = spans.Recorder()
    fake = type(sys)("fake_cli")
    fake.main = lambda: 1
    rec.install({"qcext.cli": fake}, targets=[
        ("qcext.cli", None, "main", "cli.main", None),
        ("qcext.cli", None, "_write_rows", "cli._write_rows", None),
    ])
    assert fake.main() == 1
    rec.uninstall()
    assert not hasattr(fake.main, "__wrapped__")
    assert rec.missing == ["cli._write_rows"]
    totals = spans.summarize(rec.take())
    metrics, gone = spans.layer_metrics(totals, 1, rec.missing)
    assert "cli.write_ms" in gone and "cli.write_ms" not in metrics
    assert metrics["cli.self_ms"]["value"] > 0


def test_nested_spans_feed_ratio_metrics():
    tree = [
        _span("realmap._invert_array", 0.0, 1.0, -1, {"points": 4}),
        _span("realmap.RealMap.__call__", 0.1, 0.2, 0, {"points": 4}),
        _span("realmap.RealMap.deriv", 0.3, 0.4, 0, {"points": 4}),
        _span("realmap.RealMap.__call__", 2.0, 3.0, -1, {"points": 8}),
    ]
    metrics, gone = spans.layer_metrics(spans.summarize(tree), 2, [])
    assert not gone
    assert metrics["realmap.invert_evals_per_call"]["value"] == 2
    assert metrics["realmap.eval_calls"]["value"] == 1.5
    # evals nested in another eval are not counted twice; all three are outermost
    assert metrics["realmap.eval_ms"]["value"] == pytest.approx(600.0)


def test_benchmark_json_names_every_reported_metric():
    per_layer = {m["name"] for m in BENCHMARK["per_layer"]}
    assert per_layer == set(spans.LAYER_METRICS) | {
        "setup.import_ms", "setup.import_scipy_ms", "trace.overhead_pct"}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)


def _first_op(name, workdir, kind=None):
    rng = np.random.default_rng(7)
    for op in WORKLOADS[name].ops(rng, workdir):
        if kind is None or op.kind == kind:
            return op
    raise AssertionError  # pragma: no cover


def _run_in_process(op):
    from qcext import cli
    Path(op.spec["map_path"]).write_text(op.input_text)
    return {"rc": cli.main(op.argv)}


def test_injected_wrong_value_counts_in_fail_frac(tmp_path):
    wl = WORKLOADS["grid-extend"]
    op = _first_op("grid-extend", tmp_path)
    reply = _run_in_process(op)
    tally = run.Tally()
    tally.add(run.verify(wl, op, reply))
    assert tally.failed == 0 and op.passed_digest is not None

    text = Path(op.out).read_text()
    rows = json.loads(text) if op.spec["fmt"] == "json" else None
    if rows is not None:
        rows[len(rows) // 2]["re"] *= 1.0 + 1e-9
        Path(op.out).write_text(json.dumps(rows))
    else:
        lines = text.splitlines()
        cells = lines[len(lines) // 2].split(",")
        cells[2] = repr(float(cells[2]) * (1.0 + 1e-9))
        lines[len(lines) // 2] = ",".join(cells)
        Path(op.out).write_text("\n".join(lines) + "\n")
    verdict = run.verify(wl, op, reply)   # a repeat whose output changed is checked in full
    tally.add(verdict)
    assert not verdict.ok and not verdict.known
    assert (tally.attempted, tally.failed) == (2, 1)
    assert tally.fail_frac == 0.5


def test_repeat_with_identical_output_passes_without_the_oracle(tmp_path):
    class Refuse:
        def check(self, op, reply):
            raise AssertionError("oracle called")

    op = _first_op("factorize", tmp_path)
    Path(op.out).write_text("{}")
    Path(op.follow["values"]).write_bytes(b"x")
    op.passed_digest = run._output_digest(op, {"rc": 0, "cert_gap": 0.1})
    assert run.verify(Refuse(), op, {"rc": 0, "cert_gap": 0.1}).ok
    Path(op.follow["values"]).write_bytes(b"y")
    with pytest.raises(AssertionError, match="oracle called"):
        run.verify(Refuse(), op, {"rc": 0, "cert_gap": 0.1})


def test_failed_exit_code_counts_as_unexpected_failure(tmp_path):
    op = _first_op("factorize", tmp_path)
    verdict = WORKLOADS["factorize"].check(op, {"rc": 3, "err": "numerical failure"})
    assert not verdict.ok and not verdict.known


def _fake_de_rows(op, w_of_z):
    z = workloads._grid_points(op.spec["grid"])
    w = w_of_z(z)
    lines = ["x,y,re,im,dilatation"] + [
        f"{float(zi.real)!r},{float(zi.imag)!r},{float(wi.real)!r},{float(wi.imag)!r},"
        for zi, wi in zip(z, w)]
    Path(op.out).write_text("\n".join(lines) + "\n")
    return z


def _probe(kind, workdir):
    ops = WORKLOADS["solver-extend"].probes(np.random.default_rng(7), workdir)
    return next(op for op in ops if op.kind == kind)


def test_de_miss_is_known_only_near_the_circle(tmp_path):
    wl = WORKLOADS["solver-extend"]
    for op in (_first_op("solver-extend", tmp_path, kind="mobius"), _probe("mobius", tmp_path)):
        d = op.spec["circle"]
        c = complex(*d["center"])

        def exact(z):
            return np.exp(1j * d["angle"]) * (z - c) / (1.0 - np.conj(c) * z)

        _fake_de_rows(op, exact)
        assert wl.check(op, {"rc": 0}).ok

        near = float(np.max(np.abs(workloads._grid_points(op.spec["grid"]))))
        _fake_de_rows(op, lambda z: exact(z) + 1e-3 * (np.abs(z) == near))
        verdict = wl.check(op, {"rc": 0})
        assert not verdict.ok
        assert verdict.known == ("de-near-circle" if near > 0.95 else "")

        _fake_de_rows(op, lambda z: exact(z) + 1e-3 * (np.abs(z) < 0.5))
        verdict = wl.check(op, {"rc": 0})
        assert not verdict.ok and not verdict.known


def _perturb_csv_row(path, i, delta):
    lines = Path(path).read_text().splitlines()
    cells = lines[i + 1].split(",")
    cells[2] = repr(float(cells[2]) + delta)
    lines[i + 1] = ",".join(cells)
    Path(path).write_text("\n".join(lines) + "\n")


def test_ba_miss_is_known_only_at_a_kink_and_small(tmp_path):
    wl = WORKLOADS["solver-extend"]
    for op in (_first_op("solver-extend", tmp_path, kind="ba"), _probe("ba", tmp_path)):
        reply = _run_in_process(op)
        i = op.spec["sample"][0]
        z = workloads._grid_points(op.spec["grid"])[i]
        kink = any(abs(e - z.real) < z.imag for e in op.spec["map"].edges())
        _perturb_csv_row(op.out, i, 5e-9)
        assert wl.check(op, reply).known == ("ba-kink" if kink else "")
        _perturb_csv_row(op.out, i, 1e-6)
        verdict = wl.check(op, reply)
        assert not verdict.ok and not verdict.known


def test_measured_ops_keep_clear_of_the_known_defects(tmp_path):
    """The measured ops may not fail: no BA window meets a bump edge and every
    DE point is far enough inside the circle for the CLI's 512 nodes."""
    wl = WORKLOADS["solver-extend"]
    for seed in range(5):
        for op in wl.cycle(np.random.default_rng(seed), tmp_path, 0):
            z = workloads._grid_points(op.spec["grid"])
            if op.kind == "ba":
                edges = np.array(op.spec["map"].edges())
                assert (np.abs(edges[None, :] - z.real[:, None]) > z.imag[:, None]).all()
            else:
                alias = workloads.TWO_PI * workloads.CLI_DE_NODES * np.abs(z) ** workloads.CLI_DE_NODES
                assert alias.max() < 1e-3 * workloads.KNOWN_DE_ALIASING


def test_defect_probes_fall_under_a_known_defect_or_pass(tmp_path):
    wl = WORKLOADS["solver-extend"]
    for op in wl.probes(np.random.default_rng(3), tmp_path):
        verdict = wl.check(op, _run_in_process(op))
        assert verdict.ok or verdict.known, verdict.detail


def test_tally_counts_every_miss():
    tally = run.Tally()
    for v in (Verdict(True), Verdict(False, "de-near-circle", "near"), Verdict(False, "", "new")):
        tally.add(v)
    assert (tally.attempted, tally.failed) == (3, 2)
    assert tally.first_failure == "near"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_untraced(name, tmp_path):
    out = run.run_workload(name, seed=3, seconds=0.2, trace=False, min_ops=3,
                           probes=1, workdir=tmp_path)
    res = out["result"]
    assert res["attempted"] >= 3
    assert res["correct"] and res["failed"] == 0, out["first_failure"]
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_smoke_traced(name, tmp_path):
    out = run.run_workload(name, seed=3, seconds=0.0, trace=True, probes=1,
                           workdir=tmp_path)
    res = out["result"]
    assert res["correct"], out["first_failure"]
    assert not out["missing"]
    assert set(res["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    layer = {"grid-extend": "extensions.calls", "solver-extend": "douady_earle.solves",
             "factorize": "decompose.calls"}[name]
    assert res["metrics"][layer]["value"] > 0


def test_refuses_to_run_without_sources(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    assert run.main(["--workload", "grid-extend", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""
