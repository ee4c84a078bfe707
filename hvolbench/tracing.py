"""Spans around calls into hvol's public functions, recorded from outside.

Each target function is wrapped at every binding that holds it: the module
that defines it and every hvol module that imported it by name (for example
`hvol.reeb.valuation_volume_toric` and `hvol.cli.phi_surface`).  Wrapping only
the defining module would let calls from other modules escape their spans.
Methods are wrapped on their class.  `install` and `uninstall` may alternate,
for example around single jobs.

A span is (name, start, end, parent span, job id).  Spans stay in memory
until `write`; a span's self time is its duration minus the time its child
spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path

OBJECTIVE_FUNCTIONS = ("valuation.valuation_volume_toric", "valuation.valuation_volume_hypersurface")
MINIMIZE = "reeb.minimize_nvol"


def _hvol_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "hvol" or name.startswith("hvol.")]


class Tracer:
    def __init__(self, targets: list[str]):
        self.targets = targets
        self.spans: list[tuple | None] = []
        self.job_id = -1
        self.minimize_returns: list[tuple[int, bool]] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self._unpatched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------------------

    def install(self) -> None:
        for name_id, target in enumerate(self.targets):
            module_name, *attrs = target.split(".")
            module = importlib.import_module(f"hvol.{module_name}")
            if len(attrs) == 2:  # a method, wrapped on its class
                owner = getattr(module, attrs[0])
                raw = owner.__dict__[attrs[1]]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name_id, target, raw.__func__))
                else:
                    wrapped = self._wrap(name_id, target, raw)
                self._patch(owner, attrs[1], raw, wrapped)
                continue
            func = getattr(module, attrs[0])
            wrapped = self._wrap(name_id, target, func)
            for mod in _hvol_modules():
                for attr, value in list(vars(mod).items()):
                    if value is func:
                        self._patch(mod, attr, func, wrapped)

    def _patch(self, owner, attr: str, original, wrapped) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)
            self._unpatched.append((owner, attr, original))

    def restored(self) -> bool:
        """True when every binding ever wrapped holds its original object again."""
        return not self._patched and all(
            vars(owner).get(attr) is original for owner, attr, original in self._unpatched
        )

    def _wrap(self, name_id: int, target: str, func):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        keep_result = target == MINIMIZE

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name_id, start, end, parent, self.job_id)
            if keep_result:
                self.minimize_returns.append((result.iterations, result.stalled_at_kink))
            return result

        return wrapper

    # -- results -----------------------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        calls = [0] * len(self.targets)
        self_ns = [0] * len(self.targets)
        child_ns = defaultdict(int)
        for name_id, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        for index, (name_id, start, end, _, _) in enumerate(self.spans):
            calls[name_id] += 1
            self_ns[name_id] += end - start - child_ns[index]
        out: dict[str, tuple[float, str]] = {}
        for name_id, target in enumerate(self.targets):
            out[f"{target}.calls"] = (calls[name_id], "count")
            out[f"{target}.self_ms"] = (self_ns[name_id] / 1e6, "ms")
        out["reeb.objective_evals"] = (self._objective_evals(), "count")
        out["reeb.iterations"] = (sum(it for it, _ in self.minimize_returns), "count")
        starts = len(self.minimize_returns)
        stalled = sum(1 for _, s in self.minimize_returns if s)
        out["reeb.stalled_share"] = (stalled / starts if starts else 0.0, "ratio")
        return out

    def _objective_evals(self) -> int:
        """Objective calls made under a `minimize_nvol` span."""
        objective = {self.targets.index(t) for t in OBJECTIVE_FUNCTIONS if t in self.targets}
        minimize = self.targets.index(MINIMIZE)
        count = 0
        for name_id, _, _, parent, _ in self.spans:
            if name_id not in objective:
                continue
            while parent >= 0:
                if self.spans[parent][0] == minimize:
                    count += 1
                    break
                parent = self.spans[parent][3]
        return count

    def write(self, path: Path) -> None:
        """All spans, one JSON array per line after a header naming the targets."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.targets, "fields": ["name", "start_ns", "end_ns", "parent", "job"]}) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
