"""Spans around the calls into each layer's public functions.

`Tracer.installed()` replaces the `rula.<module>.<function>` attributes with
wrappers for the duration of a `with` block, so calls made through those
attributes (including `cli.main` calling into the other layers) record a
span: name, start, end and the span that was open when it started. The
program's own source is not modified. Spans stay in memory until
`to_json` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _observe(name: str, args, result, error) -> dict:
    """Counts taken where the work happens, from a call's arguments and result."""
    if name == "parser.parse":
        return {"bytes": len(args[0].encode("utf-8")), "parse_error": error is not None}
    if error is not None:
        return {"raised": type(error).__name__}
    if name == "analyzer.analyze_program":
        return {"rejected": bool(result.errors)}
    if name == "codegen.compile_program":
        stages = [rs.stages for rs in result.per_node.values()]
        return {
            "stages": sum(len(s) for s in stages),
            "rules": sum(len(stage.rules) for s in stages for stage in s),
        }
    if name == "ir.serialize":
        return {"bytes": len(result.encode("utf-8"))}
    if name == "ir.validate":
        return {"findings": len(result)}
    if name in ("runtime.run", "runtime.enumerate_outcomes"):
        reports = result if isinstance(result, list) else [result]
        return {
            "branches": len(reports),
            "branch_rounds": sum(r.rounds for r in reports),
            "max_rounds": max(r.rounds for r in reports),
            "fired": sum(len(r.fired) for r in reports),
            "messages": sum(r.messages_delivered for r in reports),
            "quiescent": sum(r.quiescent for r in reports),
        }
    return {}


class Tracer:
    # (module, attribute, span name): `analyzer` binds `parse` by name, so
    # imports parsed inside resolve_imports need their own wrapper.
    TARGETS = (
        ("cli", "main", "cli.main"),
        ("parser", "parse", "parser.parse"),
        ("analyzer", "parse", "parser.parse"),
        ("analyzer", "resolve_imports", "analyzer.resolve_imports"),
        ("analyzer", "analyze_program", "analyzer.analyze_program"),
        ("config", "load_config", "config.load_config"),
        ("codegen", "compile_program", "codegen.compile_program"),
        ("codegen", "write_output", "codegen.write_output"),
        ("ir", "serialize", "ir.serialize"),
        ("ir", "deserialize", "ir.deserialize"),
        ("ir", "validate", "ir.validate"),
        ("runtime", "run", "runtime.run"),
        ("runtime", "enumerate_outcomes", "runtime.enumerate_outcomes"),
    )

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[Span] = []

    @contextlib.contextmanager
    def span(self, name: str):
        span = Span(
            id=len(self.spans),
            name=name,
            start=time.thread_time(),
            parent=self._open[-1].id if self._open else None,
        )
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span.end = time.thread_time()
            self._open.pop()

    def _wrap(self, function, name: str):
        @functools.wraps(function)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                try:
                    result = function(*args, **kwargs)
                except Exception as exc:
                    span.attrs = _observe(name, args, None, exc)
                    raise
                span.attrs = _observe(name, args, result, None)
                return result

        return traced

    @contextlib.contextmanager
    def installed(self, rula):
        """Wrap the layer functions of the `rula` package inside the block."""
        saved = []
        try:
            for module_name, attr, name in self.TARGETS:
                module = getattr(rula, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, name))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def self_times(self, spans: list[Span]) -> dict[int, float]:
        """Each span's duration minus the part its direct children cover."""
        own = {s.id: s.duration for s in spans}
        for s in spans:
            if s.parent in own:
                own[s.parent] -= s.duration
        return own

    def table(self, spans: list[Span]) -> dict[str, dict[str, float]]:
        """Self time per layer under each top-level span, keyed by its name."""
        own = self.self_times(spans)
        by_id = {s.id: s for s in spans}
        out: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for s in spans:
            top = s
            while top.parent in by_id:
                top = by_id[top.parent]
            out[top.name][s.layer] += own[s.id]
        return {k: dict(v) for k, v in out.items()}

    def to_json(self) -> list[dict]:
        return [
            {"id": s.id, "name": s.name, "start": s.start, "end": s.end,
             "parent": s.parent, **({"attrs": s.attrs} if s.attrs else {})}
            for s in self.spans
        ]
