"""In-memory spans around the public functions of inpaintlab's layers.

The benchmark measures the program as shipped, so nothing here lives in
the package: ``install`` swaps each probed function for a timing wrapper
in every ``inpaintlab`` module that holds it (a module that did
``from .bridge import standard_normal`` has its own reference, which a
patch of ``bridge`` alone would miss), and the returned ``restore`` puts
the originals back.

A span is (name, start, end, parent) plus the numbers its probe reads at
entry and exit.  A layer's self time is its span's duration minus the
part of that interval covered by its child spans.
"""

from __future__ import annotations

import functools
import math
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = math.nan
    parent: int | None = None
    enter: dict = field(default_factory=dict)
    exit: dict = field(default_factory=dict)


class Tracer:
    """Collects spans of one single-threaded run; the open spans form a stack."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def end(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._open.pop()


@dataclass(frozen=True)
class Probe:
    """Span ``span`` around ``module.attr`` (``attr`` may be ``Class.method``).

    ``read(args, kwargs)`` returns the numbers to keep on the span; it
    runs at entry and again at exit, so a counter's growth shows.
    """

    module: str
    attr: str
    span: str
    read: Callable | None = None


def _draws(args, kwargs):
    shape = args[1] if len(args) > 1 else kwargs["shape"]
    return {"draws": math.prod(shape)}


def _file_bytes(args, kwargs):
    path = args[0] if args else kwargs["path"]
    return {"bytes": os.path.getsize(path)} if os.path.exists(path) else {}


def _run_conditional(args, kwargs):
    denoiser, cfg = args[1], args[3]
    return {"method": cfg.method, "jacobian_calls": denoiser.jacobian_calls}


PROBES = (
    Probe("inpaintlab.cli", "run_experiment", "cli.run"),
    Probe("inpaintlab.config", "load_config", "config.load"),
    Probe("inpaintlab.gmm", "component_posterior", "gmm.posterior"),
    Probe("inpaintlab.gmm", "GMMDenoiser.jacobian", "gmm.jacobian"),
    Probe("inpaintlab.bridge", "standard_normal", "bridge.normal", _draws),
    Probe("inpaintlab.guidance", "chain_rngs", "guidance.chain_rngs"),
    Probe("inpaintlab.guidance", "run_conditional", "guidance.run", _run_conditional),
    *(
        Probe("inpaintlab.guidance", f"step_{m}", "guidance.step")
        for m in ("blended", "dps", "ding", "ddnm", "diffpir")
    ),
    Probe("inpaintlab.oracle", "exact_posterior", "oracle.exact_posterior"),
    Probe("inpaintlab.gmm", "GaussianMixture.sample", "oracle.sample"),
    Probe("inpaintlab.metrics", "sliced_w2", "metrics.sliced_w2"),
    Probe("inpaintlab.metrics", "cpsnr", "metrics.cpsnr"),
    Probe("inpaintlab.io", "write_samples", "io.write_samples", _file_bytes),
    Probe("inpaintlab.cli", "_write_trajectories", "cli.trajectories", _file_bytes),
)


def _wrap(fn: Callable, probe: Probe, tracer: Tracer) -> Callable:
    def read(args, kwargs) -> dict:
        # a probe that no longer fits the signature loses its numbers, not the run
        try:
            return probe.read(args, kwargs) if probe.read else {}
        except (IndexError, KeyError, AttributeError, TypeError):
            return {}

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.begin(probe.span)
        tracer.spans[index].enter = read(args, kwargs)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.spans[index].exit = read(args, kwargs)
            tracer.end(index)
        return result

    return wrapper


def install(tracer: Tracer, probes=PROBES) -> tuple[Callable[[], None], list[str]]:
    """Wrap every probed function wherever an ``inpaintlab`` module holds it.

    Returns ``restore``, which puts each original object back, and the
    probes whose function does not exist (their layers then read 0).
    """
    modules = [
        mod for name, mod in list(sys.modules.items())
        if mod is not None and (name == "inpaintlab" or name.startswith("inpaintlab."))
    ]
    saved: list[tuple[object, str, object]] = []
    missing: list[str] = []
    for probe in probes:
        owner = sys.modules.get(probe.module)
        *path, leaf = probe.attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = vars(owner).get(leaf) if owner is not None else None
        if not callable(original):
            missing.append(f"{probe.module}.{probe.attr}")
            continue
        wrapper = _wrap(original, probe, tracer)
        holders = [owner] if path else [m for m in modules if vars(m).get(leaf) is original]
        for holder in holders:
            saved.append((holder, leaf, original))
            setattr(holder, leaf, wrapper)

    def restore() -> None:
        for holder, leaf, original in reversed(saved):
            setattr(holder, leaf, original)

    return restore, missing


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children[i]):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append((span.end - span.start) - covered)
    return out


def self_time_by_name(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        totals[span.name] += own
    return dict(totals)


def to_json(spans: list[Span]) -> list[dict]:
    return [vars(span) for span in spans]


def from_json(rows: list[dict]) -> list[Span]:
    return [Span(**row) for row in rows]
