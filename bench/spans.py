"""Per-layer spans recorded from outside the `decor` package.

`Tracer.install()` replaces every binding of each target function -- the
defining module, every `decor.*` module that imported it by name, and the
package re-export -- with a timing wrapper; `Tracer.remove()` puts the
original objects back. Nothing under `src/decor/` knows about it.

Spans are aggregated as they close (inclusive time, self time and call
count per span name) instead of being stored one by one: a `paper6`
execution makes several hundred thousand wrapped calls.

Two spans are scopes: `probe.evaluate` and `regularizer.increment`. The
`nn.*` calls made inside a scope are not recorded on their own; their cost
is the scope's self time (the probe's feature extraction, the boundary's
encode pass). So the `nn.*` metrics measure the training step only.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

SCOPES = ("probe.evaluate", "regularizer.increment")


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    `owner` is a module path, or `module:Class` for a method. `span` is the
    span name, or a callable `(args, kwargs) -> name`. `count`, when set,
    runs after the span closes as `count(tracer, args, kwargs, result)`.
    """

    owner: str
    attr: str
    span: str | Callable
    count: Callable | None = None
    skip_in_scope: bool = False


def _add(tracer: "Tracer", key: str, amount: float) -> None:
    tracer.counts[key] = tracer.counts.get(key, 0) + amount


def _count_task_rows(tracer, args, kwargs, tasks):
    _add(tracer, "data.rows", sum(len(t) for t in tasks))


def _count_distill_rows(tracer, args, kwargs, result):
    _add(tracer, "regularizer.distill_rows", len(args[2] if len(args) > 2 else kwargs["sample_ids"]))


def _count_kmeans(tracer, args, kwargs, result):
    x = np.asarray(args[0] if args else kwargs["features"], dtype=np.float64)
    codebook, assignment = result[0], result[1]
    # the winning objective, recomputed the way kmeans_objective defines it
    _add(tracer, "kmeans.rows", x.shape[0])
    _add(tracer, "kmeans.objective", float(((x - codebook.codes[assignment.indices]) ** 2).sum()))


def _count_probe_rows(tracer, args, kwargs, result):
    train_sets = args[0] if args else kwargs["train_sets"]
    _add(tracer, "probe.train_rows", sum(len(labels) for _, labels in train_sets))


def _run_sequence_span(args, kwargs) -> str:
    config = args[0] if args else kwargs["config"]
    return "harness.run_sequence." + config.method.replace("+", "-")


TARGETS = (
    Target("decor.config", "load_config", "config.load"),
    Target("decor.config:ExperimentConfig", "tasks_for_seed", "data.tasks", _count_task_rows),
    Target("decor.nn", "forward_cached", "nn.forward_cached", skip_in_scope=True),
    Target("decor.nn", "backward", "nn.backward", skip_in_scope=True),
    Target("decor.nn", "sgd_step", "nn.sgd_step", skip_in_scope=True),
    Target("decor.nn", "add_grads", "nn.add_grads", skip_in_scope=True),
    Target("decor.nn", "forward", "nn.forward", skip_in_scope=True),
    Target("decor.objectives", "augment_view", "objectives.augment"),
    Target("decor.objectives", "augment_two_views", "objectives.augment"),
    Target("decor.objectives", "supervised_ce_loss", "objectives.ce"),
    Target("decor.objectives", "nt_xent_loss", "objectives.nt_xent"),
    Target("decor.objectives", "lwf_distill_loss", "objectives.lwf"),
    Target("decor.objectives:TeacherSnapshot", "capture", "objectives.teacher_capture"),
    Target("decor.regularizer", "increment", "regularizer.increment"),
    Target("decor.regularizer", "distill_loss", "regularizer.distill", _count_distill_rows),
    Target("decor.regularizer", "serialize_state", "regularizer.serialize"),
    Target("decor.kmeans", "kmeans_fit", "kmeans.fit", _count_kmeans),
    Target("decor.probe", "evaluate_probe", "probe.evaluate"),
    Target("decor.probe", "linear_probe", "probe.fit", _count_probe_rows),
    Target("decor.harness", "run_sequence", _run_sequence_span),
    Target("decor.cli", "cmd_run", "cli.run"),
    Target("decor.cli", "cmd_report", "cli.report"),
)


def _decor_modules():
    return [m for n, m in list(sys.modules.items()) if m is not None and (n == "decor" or n.startswith("decor."))]


class Tracer:
    """Installs timing wrappers on every target; use as a context manager."""

    def __init__(self):
        self.inclusive: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.missing: list[str] = []
        self._stack: list[list[float]] = []  # child time of each open span
        self._scope_depth = 0
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.remove()

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for target in TARGETS:
            module_name, _, class_name = target.owner.partition(":")
            try:
                holder = importlib.import_module(module_name)
                if class_name:
                    holder = getattr(holder, class_name)
                original = (holder.__dict__ if class_name else vars(holder))[target.attr]
            except (ImportError, AttributeError, KeyError):
                self.missing.append(f"{target.owner}.{target.attr}")
                continue
            if isinstance(original, classmethod):
                self._patch(holder, target.attr, classmethod(self._wrap(target, original.__func__)))
            elif class_name:
                self._patch(holder, target.attr, self._wrap(target, original))
            else:
                wrapper = self._wrap(target, original)
                for module in _decor_modules():
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, name, wrapper)

    def remove(self) -> None:
        while self._saved:
            holder, name, original = self._saved.pop()
            setattr(holder, name, original)

    def _patch(self, holder, name: str, replacement) -> None:
        self._saved.append((holder, name, holder.__dict__[name]))
        setattr(holder, name, replacement)

    def _wrap(self, target: Target, func):
        tracer = self
        is_scope = target.span in SCOPES
        fixed_name = target.span if isinstance(target.span, str) else None

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if target.skip_in_scope and tracer._scope_depth:
                return func(*args, **kwargs)
            name = fixed_name or target.span(args, kwargs)
            frame = [0.0]
            tracer._stack.append(frame)
            tracer._scope_depth += is_scope
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._stack.pop()
                tracer._scope_depth -= is_scope
                tracer._close(name, duration, duration - frame[0])
            if target.count is not None:
                target.count(tracer, args, kwargs, result)
            return result

        return wrapper

    def _close(self, name: str, duration: float, self_duration: float) -> None:
        self.inclusive[name] = self.inclusive.get(name, 0.0) + duration
        self.self_time[name] = self.self_time.get(name, 0.0) + self_duration
        self.calls[name] = self.calls.get(name, 0) + 1
        if self._stack:
            self._stack[-1][0] += duration


def _inclusive(span: str):
    return lambda t: t.inclusive.get(span, 0.0)


def _self(span: str):
    return lambda t: t.self_time.get(span, 0.0)


def _calls(span: str):
    return lambda t: t.calls.get(span, 0)


def _count(key: str):
    return lambda t: t.counts.get(key, 0)


RUN_SEQUENCE_METHODS = ("finetune", "decor", "lwf", "simclr", "simclr-decor", "simclr-lwf")

# metric name -> (unit, how to read it from a closed tracer)
LAYER_METRICS: dict[str, tuple[str, Callable[[Tracer], float]]] = {
    "data.tasks_s": ("s", _inclusive("data.tasks")),
    "data.rows": ("count", _count("data.rows")),
    "config.load_s": ("s", _inclusive("config.load")),
    "nn.forward_cached_s": ("s", _inclusive("nn.forward_cached")),
    "nn.forward_cached_calls": ("count", _calls("nn.forward_cached")),
    "nn.backward_s": ("s", _inclusive("nn.backward")),
    "nn.backward_calls": ("count", _calls("nn.backward")),
    "nn.sgd_step_s": ("s", _inclusive("nn.sgd_step")),
    "nn.add_grads_s": ("s", _inclusive("nn.add_grads")),
    "nn.forward_s": ("s", _inclusive("nn.forward")),
    "objectives.augment_s": ("s", _inclusive("objectives.augment")),
    "objectives.ce_s": ("s", _inclusive("objectives.ce")),
    "objectives.nt_xent_s": ("s", _inclusive("objectives.nt_xent")),
    "objectives.lwf_s": ("s", _inclusive("objectives.lwf")),
    "objectives.teacher_capture_s": ("s", _inclusive("objectives.teacher_capture")),
    "regularizer.increment_s": ("s", _inclusive("regularizer.increment")),
    "regularizer.encode_s": ("s", _self("regularizer.increment")),
    "regularizer.distill_s": ("s", _inclusive("regularizer.distill")),
    "regularizer.distill_rows": ("count", _count("regularizer.distill_rows")),
    "regularizer.serialize_s": ("s", _inclusive("regularizer.serialize")),
    "kmeans.fit_s": ("s", _inclusive("kmeans.fit")),
    "kmeans.fit_calls": ("count", _calls("kmeans.fit")),
    "kmeans.rows": ("count", _count("kmeans.rows")),
    "kmeans.objective": ("sqdist", _count("kmeans.objective")),
    "probe.evaluate_s": ("s", _inclusive("probe.evaluate")),
    "probe.fit_s": ("s", _inclusive("probe.fit")),
    "probe.extract_s": ("s", _self("probe.evaluate")),
    "probe.train_rows": ("count", _count("probe.train_rows")),
    "harness.self_s": (
        "s",
        lambda t: sum(v for k, v in t.self_time.items() if k.startswith("harness.run_sequence.")),
    ),
    "harness.train_steps": ("count", _calls("objectives.augment")),
    **{
        f"harness.run_sequence_s.{m}": ("s", _inclusive(f"harness.run_sequence.{m}"))
        for m in RUN_SEQUENCE_METHODS
    },
    "cli.self_s": ("s", _self("cli.run")),
    "cli.report_s": ("s", _inclusive("cli.report")),
}


def layer_values(tracer: Tracer) -> dict[str, float]:
    return {name: float(read(tracer)) for name, (_, read) in LAYER_METRICS.items()}
