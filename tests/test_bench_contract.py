"""The l1bn names the benchmark under perfbench/ depends on.

``perfbench/tracer.py`` wraps every name in its ``SPANS`` table by looking it up
in its owner's ``__dict__``, and the parity workload unpacks the CLI's parity
preset.  Deleting or renaming one of these fails here, not later as a KeyError
under ``python3 perfbench/run.py --trace 1``.
"""

import dataclasses
import importlib
import sys
from collections import Counter
from pathlib import Path

from l1bn import cli, gradcheck, trainer
from l1bn.batchnorm import BnMode
from l1bn.trainer import MlpSpec, SgdConfig, SyntheticTask

PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")


def perfbench_module(name: str):
    """A perfbench module, imported read-only; sys.path is left as found."""
    sys.path.insert(0, PERFBENCH)
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(PERFBENCH)
        sys.modules.pop(name, None)


def traced_names() -> dict:
    return perfbench_module("tracer").SPANS


def test_every_traced_name_exists():
    spans = traced_names()
    missing = []
    for module_name, table in spans.items():
        module = importlib.import_module(f"l1bn.{module_name}")
        for attr in table:
            owner, leaf = module, attr
            if "." in attr:
                class_name, leaf = attr.split(".")
                owner = vars(module).get(class_name)
            if owner is None or leaf not in vars(owner):
                missing.append(f"l1bn.{module_name}.{attr}")
    assert spans and not missing


def test_parity_preset_unpacks():
    task, hidden, config = cli._PRESETS["parity"]
    assert isinstance(task, SyntheticTask) and isinstance(config, SgdConfig)
    assert hidden and all(isinstance(width, int) for width in hidden)


def test_training_step_runs_through_module_names(monkeypatch):
    # parity_mlp times each op through trainer.forward_backward_step and
    # trainer.sgd_update: a step that skipped either name would drop out of op_ms
    calls = Counter()

    def counted(name):
        original = getattr(trainer, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)
        return wrapper

    for name in ("forward_backward_step", "sgd_update"):
        monkeypatch.setattr(trainer, name, counted(name))
    task, hidden, config = cli._PRESETS["sanity"]
    config = dataclasses.replace(config, epochs=1)
    spec = MlpSpec(in_dim=task.dim, hidden=hidden, classes=task.classes)
    record = trainer.run_experiment(task, spec, config)
    n = task.classes * task.train_per_class
    batches = sum(1 for lo in range(0, n, config.batch_size)
                  if min(config.batch_size, n - lo) >= 2)
    assert len(record.train_loss) == 1 and not record.diverged
    assert calls == {"forward_backward_step": batches, "sgd_update": batches}


def test_validate_round_probe_count(monkeypatch):
    # the tracer counts 2·x.size probes per gradcheck.finite_diff call: one call per
    # check over (x, γ, β) keeps a validate round's gradcheck.probes at 8166
    sizes = []
    real = gradcheck.finite_diff

    def counted(f, x, step=1e-6):
        sizes.append(x.size)
        return real(f, x, step)

    monkeypatch.setattr(gradcheck, "finite_diff", counted)
    cases = perfbench_module("workloads").GRAD_CASES
    for shape, seed in cases:
        for mode in BnMode:
            gradcheck.check_layer(mode, shape, seed=seed)
    assert len(sizes) == 3 * len(cases)
    assert 2 * sum(sizes) == 8166
