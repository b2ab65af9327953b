"""The answers of the benchmark's workloads, pinned.

One untimed seed-1 round of each workload in bench/workloads.py runs
here, and every operation's answer fingerprint (status, certified,
pattern, J_upper to 4 digits, outer iterations and sweeps; verify's exit
code) must equal the one in tests/answers.json.  A change that moves an
answer on purpose regenerates the file with

    PYTHONPATH=src python tests/test_answers.py

and lists every changed line.  bench/ is loaded by path and not changed.
"""

import importlib
import json
import pathlib
import types

import pytest

from conftest import load_workloads

ANSWERS = pathlib.Path(__file__).with_name("answers.json")
SEED = 1
MODULES = ("cli", "model", "outer", "l0", "inner", "errors")


def run_round(name, workdir):
    """{op_id: (fingerprint, failure message or "")} of one seed-1 round.

    The sweep counter wraps inner.sgs_sweep for the round and is
    removed again afterwards.
    """
    workloads = load_workloads()
    sl = types.SimpleNamespace(**{
        m: importlib.import_module(f"sparselq.{m}") for m in MODULES})
    sweep = sl.inner.sgs_sweep
    try:
        counter = workloads.SweepCounter(sl.inner)
        wl = workloads.WORKLOADS[name]()
        wl.setup(sl)
        ops, _ = wl.run_round(sl, counter, workloads.round_rng(SEED, 0),
                              str(workdir))
    finally:
        sl.inner.sgs_sweep = sweep
    return {op.op_id: (op.answer, op.error if op.failed else "")
            for op in ops}


@pytest.mark.parametrize("name", ["frontier", "stiff_pq", "ladder"])
def test_answers_are_pinned(name, tmp_path):
    pinned = json.loads(ANSWERS.read_text())[name]
    got = run_round(name, tmp_path)
    assert sorted(got) == sorted(pinned)
    changed = [f"{op_id}: {key} {pinned[op_id].get(key)} -> "
               f"{answer.get(key)}"
               for op_id, (answer, _) in sorted(got.items())
               for key in sorted(set(answer) | set(pinned[op_id]))
               if answer.get(key) != pinned[op_id].get(key)]
    assert not changed, "\n".join(changed)
    failed = [f"{op_id}: {error}" for op_id, (_, error) in got.items()
              if error]
    assert not failed, "\n".join(failed)


if __name__ == "__main__":
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        doc = {name: {op_id: answer for op_id, (answer, _)
                      in sorted(run_round(name, tmp).items())}
               for name in ("frontier", "stiff_pq", "ladder")}
    ANSWERS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
