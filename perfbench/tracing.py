"""Span tracing around the public functions of the cfii layers.

`install` replaces each traced function by a wrapper that records a span
(name, start, end, process CPU time used, parent span, and a few
arguments) and patches every name in the cfii modules that refers to the
function, so calls from one layer into another are caught too.  Spans stay in
memory; the caller writes them out when the run ends.

Run as a script, this file is the traced stand-in for ``python -m cfii.cli``:

    python perfbench/tracing.py SPANS.json -- <cfii arguments>

It runs the CLI with tracing installed, writes the spans to SPANS.json and
exits with the CLI's exit code.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

LAYER_MODULES = ("cfii", "cfii.models", "cfii.fim", "cfii.witness",
                 "cfii.estimate", "cfii.adversary", "cfii.rng", "cfii.cli")


def _config_meta(args, kwargs, result):
    return {"command": args[0].command}


def _fi_meta(args, kwargs, result):
    theta = args[1] if len(args) > 1 else kwargs["theta"]
    return {"array": bool(getattr(theta, "ndim", 0))}


def _restarts_meta(args, kwargs, result):
    names = ("l", "m", "n_restarts", "steps")
    bound = {"n_restarts": 36, "steps": 2000}
    bound.update(zip(names, args))
    bound.update({k: v for k, v in kwargs.items() if k in names})
    meta = {"restarts": bound["n_restarts"], "steps": bound["steps"]}
    if result is not None:
        meta["best_gamma"] = result.best_gamma
    return meta


# (span name, module, attribute path, metadata hook or None)
TRACED = (
    ("cli.build_config", "cfii.cli", "build_config", None),
    ("cli.execute", "cfii.cli", "execute", _config_meta),
    ("cli.render", "cfii.cli", "ResultTable.render_csv", None),
    ("cli.render", "cfii.cli", "ResultTable.render_json", None),
    ("models.fi", "cfii.models", "BinaryModel.fi", _fi_meta),
    ("fim.effective_fi", "cfii.fim", "effective_fi", None),
    ("witness.split_optimized_benchmark", "cfii.witness",
     "split_optimized_benchmark", None),
    ("witness.k_chain_gain", "cfii.witness", "k_chain_gain", None),
    ("witness.gamma_crossing", "cfii.witness", "gamma_crossing", None),
    ("estimate.analytic_certification", "cfii.estimate",
     "analytic_certification", None),
    ("estimate.certify_vk", "cfii.estimate", "certify_vk", None),
    ("estimate.sample_binary", "cfii.estimate", "sample_binary", None),
    ("estimate.mc_rmse", "cfii.estimate", "mc_rmse", None),
    ("estimate.mc_vk_distribution", "cfii.estimate", "mc_vk_distribution",
     None),
    ("estimate.classifier_fi", "cfii.estimate", "classifier_fi", None),
    ("adversary.optimize_restarts", "cfii.adversary", "optimize_restarts",
     _restarts_meta),
    ("rng.derive_rng", "cfii.rng", "derive_rng", None),
)


class Tracer:
    """In-memory span recorder.

    Each thread keeps its own stack of open spans.  A span opened on a
    worker thread with an empty stack (the adversary's restart pool) takes
    the innermost open span of the installing thread as its parent.
    """

    def __init__(self, trace_id: str = "0"):
        self.trace_id = trace_id
        self.spans: list[dict] = []
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, meta_hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            with tracer._lock:
                span_id = len(tracer.spans)
                tracer.spans.append(None)
            stack.append(span_id)
            cpu0 = time.process_time()
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                cpu1 = time.process_time()
                stack.pop()
                span = {"id": span_id, "trace": tracer.trace_id, "name": name,
                        "parent": parent, "start": start, "end": end,
                        "cpu": cpu1 - cpu0}
                if meta_hook is not None:
                    span.update(meta_hook(args, kwargs, result))
                tracer.spans[span_id] = span
        return traced

    def install(self) -> None:
        """Wrap every traced function and patch all names bound to it."""
        modules = [importlib.import_module(m) for m in LAYER_MODULES]
        for name, module, path, meta_hook in TRACED:
            owner = importlib.import_module(module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, meta_hook)
            self._patch(owner, attr, wrapper)
            if outer:
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every patched name."""
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def finished_spans(self) -> list[dict]:
        return [s for s in self.spans if s is not None]


def _main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracing.py SPANS.json -- <cfii arguments>")
    import cfii.cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cfii.cli.main(cli_args)
    finally:
        tracer.uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.finished_spans(), fh)
    return code


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
