"""The benchmark's own tests: seeded inputs and its correctness gates."""

import json
import math
import os

import pytest

import workloads
from workloads import (
    Certify,
    Requests,
    Sweep,
    compare_gate,
    fit_gate,
    ne_gate,
    oracle_gate,
    solve_gate,
    sweep_gate,
)


def _tree_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


@pytest.mark.parametrize("cls", [Sweep, Certify, Requests])
def test_same_seed_gives_byte_identical_inputs(tmp_path, cls):
    trees = []
    for i, seed in enumerate((5, 5, 6)):
        d = tmp_path / str(i)
        d.mkdir()
        cls.generate(str(d), seed)
        trees.append(_tree_bytes(d))
    assert trees[0] and trees[0] == trees[1]
    assert trees[0] != trees[2]


# -- sweep -----------------------------------------------------------------

SMALL_SWEEP = {
    "gamma_levels": [{"lo": 0.0, "hi": 0.5}],
    "alpha_d_levels": [0.1, 0.9],
    "repetitions": 1,
    "base_seed": 3,
    "n_orgs": 3,
    "org_defaults": {"eta": 1.79e20, "mu": 1.79e20},
    "economy": {"eps0_mode": "fixed", "eps0_value": 1.0},
    "radg_repetitions": 5,
}


@pytest.fixture
def small_sweep(tmp_path):
    inputs, out = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    out.mkdir()
    (inputs / "sweep.json").write_text(json.dumps(SMALL_SWEEP), encoding="utf-8")
    wl = Sweep(str(inputs), str(out))
    wl.load()
    return wl


def test_sweep_cycle_passes_and_detects_a_changed_rerun(small_sweep):
    first = small_sweep.run_cycle(jobs=1)
    assert (first.units, first.failed) == (2, 0)
    small_sweep.reference = small_sweep.reference.replace(b"ok", b"ko", 1)
    second = small_sweep.run_cycle(jobs=1)
    assert second.failed == 2
    assert "differs" in second.errors[0]


def test_sweep_gate_rejects_corrupted_rows(small_sweep):
    small_sweep.run_cycle(jobs=1)
    good = small_sweep.reference.decode("utf-8")
    assert not any(sweep_gate(good, 2).values())
    lines = good.splitlines()
    header, rows = lines[0], lines[1:]
    cocogen_row = next(i for i, r in enumerate(rows) if ",CoCoGen," in r)

    def corrupt(i, old, new):
        changed = list(rows)
        changed[i] = changed[i].replace(old, new)
        return "\n".join([header] + changed) + "\n"

    welfare = rows[cocogen_row].split(",")[4]
    assert any(sweep_gate(corrupt(cocogen_row, ",ok", ",error:X"), 2).values())
    assert any(sweep_gate(corrupt(cocogen_row, welfare, "nan"), 2).values())
    assert any(sweep_gate(corrupt(cocogen_row, ",true,", ",false,"), 2).values())
    assert any(sweep_gate("\n".join([header] + rows[1:]) + "\n", 2).values())
    assert any(sweep_gate(good, 3).values())


# -- certify ---------------------------------------------------------------


@pytest.fixture(scope="module")
def certify(tmp_path_factory):
    d = tmp_path_factory.mktemp("certify")
    Certify.generate(str(d), 11)
    wl = Certify(str(d), str(d))
    wl.load()
    return wl


def test_certify_units_pass_their_gates(certify):
    by_n = {}
    for s in certify.scenarios:
        by_n.setdefault(s.n, s)
    for n in (1, 2, 10):
        assert certify.run_unit(by_n[n]) == []


def test_oracle_gate_rejects_a_corrupted_result():
    assert oracle_gate(1.0, 1.0, [3.0, 4.0], [3.0, 5.0]) == []
    assert oracle_gate(1.0 + 1e-5, 1.0, [3.0, 4.0], [3.0, 4.0])
    assert oracle_gate(1.0, 1.0, [3.0, 4.0], [3.0, 6.0])
    assert oracle_gate(math.nan, 1.0, [3.0], [3.0])


def test_ne_gate_rejects_a_failed_certificate():
    assert ne_gate(True, True) == []
    assert ne_gate(True, False)
    assert ne_gate(False, True)


# -- requests --------------------------------------------------------------


@pytest.fixture(scope="module")
def request_outputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("requests")
    Requests.generate(str(d), 11)
    wl = Requests(str(d), str(d))
    wl.load()
    outputs = {}
    for label, argv, target, gate in wl.requests():
        kind = label.split("[")[0]
        if kind in outputs or kind == "compare_anti":
            continue
        code = workloads._cli_main(argv)
        with open(target, encoding="utf-8") as fh:
            outputs[kind] = (code, fh.read(), gate)
    return outputs


def test_request_outputs_pass_their_gates(request_outputs):
    for kind, (code, text, gate) in request_outputs.items():
        assert gate(code, text) == [], kind


def test_solve_gate_rejects_corrupted_output(request_outputs):
    code, text, _ = request_outputs["solve"]
    payload = json.loads(text)
    payload["welfare"] = math.nan
    assert solve_gate(code, json.dumps(payload))
    assert solve_gate(4, text)


def test_compare_gate_rejects_corrupted_output(request_outputs):
    code, text, _ = request_outputs["compare"]
    lines = text.splitlines()
    assert compare_gate(code, "\n".join(lines[:-1]) + "\n")
    fields = lines[1].split(",")
    fields[1] = "nan"
    assert compare_gate(code, "\n".join([lines[0], ",".join(fields)] + lines[2:]) + "\n")
    assert compare_gate(2, text)


def test_fit_gate_rejects_a_wrong_law(request_outputs):
    code, text, gate = request_outputs["fit"]
    truth = gate.keywords["truth"]
    assert truth is not None  # the first fit request uses a noiseless curve
    assert fit_gate(code, text, {**truth, "beta": truth["beta"] * (1 + 1e-5)})
    assert fit_gate(3, text, truth)


# -- the run loop ----------------------------------------------------------


def _cli_returns_1(argv):
    return 1


def _cli_raises(argv):
    raise RuntimeError("broken")


@pytest.mark.parametrize("broken_main", [_cli_returns_1, _cli_raises])
def test_untraced_run_ends_on_a_failed_sweep(small_sweep, monkeypatch, broken_main):
    import types

    import run
    from cocogen import cli

    monkeypatch.setattr(cli, "main", broken_main)
    monkeypatch.setattr(run, "_setup_seconds", lambda workload, input_dir: [1.0])
    args = types.SimpleNamespace(seconds=0.0)
    metrics, _, total = run.run_untraced(small_sweep, args, small_sweep.input_dir, None)
    assert total.failed > 0
    assert metrics["unit_ms.p50"][0] > 0
