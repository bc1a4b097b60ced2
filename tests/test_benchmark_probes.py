"""The benchmark's probe targets, checked read-only from the test suite.

``perfbench/spans.py`` wraps named functions of the package while it traces
a run, and the benchmark audits ``GMMDenoiser.jacobian_calls``.  The
benchmark's own tests run apart from this suite, so a rename here that
breaks a probe would otherwise go unseen.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import inpaintlab.cli  # noqa: F401  spans wraps functions of every loaded inpaintlab module
from inpaintlab import GaussianMixture, GMMDenoiser, Schedule

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look up their module while it runs
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module


def _probed(probe):
    owner = sys.modules[probe.module]
    for part in probe.attr.split("."):
        owner = vars(owner)[part]
    return owner


def _inpaintlab_attributes():
    found = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "inpaintlab" or name.startswith("inpaintlab.")):
            found.update({(name, attr): value for attr, value in vars(mod).items()})
    for cls in (GMMDenoiser, GaussianMixture):
        found.update({(cls.__qualname__, attr): value for attr, value in vars(cls).items()})
    return found


def test_every_probe_is_found_wrapped_and_restored():
    spans = _load_spans()
    before = _inpaintlab_attributes()
    restore, missing = spans.install(spans.Tracer())
    try:
        assert missing == []
        assert all(hasattr(_probed(probe), "__wrapped__") for probe in spans.PROBES)
    finally:
        restore()
    after = _inpaintlab_attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_denoiser_keeps_the_audited_counter():
    prior = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    den = GMMDenoiser(prior, Schedule("linear-flow"))
    ev = den.evaluate(np.zeros(2), 0.5)
    den.vjp(ev, np.ones(2))
    den.jacobian(ev)
    assert den.jacobian_calls == 2
