"""Golden-fingerprint regression suite (ISSUE 6 satellite).

Each roster model trains once under the frozen protocol in
``protocol.py``; its fingerprint must equal the committed
``<model>.json`` next to this file, down to the last bit. A mismatch
means some change altered the training trajectory — if that was
intentional, regenerate with ``python tools/update_goldens.py`` (and
bump ``PIPELINE_VERSION`` when stored experiment artifacts go stale;
see ``docs/TESTING.md``). If it was not intentional, you found a
reproducibility regression before it shipped.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import protocol
from repro.experiments import ExperimentSpec

HERE = Path(__file__).resolve().parent

#: ``ExperimentSpec.to_json()`` of the golden BPR run as written while
#: the trainer still had optimizer options: its ``train`` block carries
#: ``grad_clip``, ``lr_schedule``, ``monitor`` and ``weight_decay`` at
#: the only values any run used.
OLDER_SPEC_FILE = """{
  "dataset": "beauty",
  "description": "",
  "embedding_dim": 16,
  "eval_k": 20,
  "model_kwargs": {},
  "models": [
    "BPR"
  ],
  "name": "golden-bpr",
  "scenarios": [],
  "seed": 0,
  "size": "tiny",
  "sweep": [],
  "train": {
    "batch_size": 64,
    "epochs": 3,
    "eval_every": 2,
    "eval_k": 20,
    "grad_clip": 10.0,
    "learning_rate": 0.05,
    "lr_schedule": "constant",
    "monitor": "hm_recall",
    "patience": 10,
    "seed": 0,
    "verbose": false,
    "weight_decay": 0.0
  },
  "world": null
}"""


def _committed(model_name: str) -> dict:
    path = HERE / f"{model_name}.json"
    assert path.exists(), (
        f"no committed golden for {model_name}; run "
        f"`python tools/update_goldens.py`")
    return json.loads(path.read_text())


@pytest.mark.parametrize("model_name", protocol.MODELS)
def test_fingerprint_matches_golden(model_name):
    committed = _committed(model_name)
    assert committed["protocol_version"] == protocol.PROTOCOL_VERSION, (
        "protocol changed without regenerating goldens")
    got = protocol.golden_fingerprint(model_name)
    want = committed["fingerprint"]
    mismatched = {key: (got[key], want[key])
                  for key in want if got[key] != want[key]}
    assert not mismatched, (
        f"{model_name} trajectory changed: {sorted(mismatched)} differ.\n"
        f"Intentional? -> python tools/update_goldens.py\n"
        f"{json.dumps(mismatched, indent=2)}")


def test_older_spec_file_trains_the_golden_bits():
    spec = ExperimentSpec.from_json(OLDER_SPEC_FILE)
    assert spec.train == protocol.golden_train_config()
    got = protocol.golden_fingerprint("BPR", spec.train)
    assert got == _committed("BPR")["fingerprint"]
