"""In-memory spans around the program's public functions.

The tracer replaces a function under the name its caller looks it up by
(for example ``adamls.controller.plan``, which ``AdamlsController.on_event``
calls as a module global) with a wrapper that records a span: name, parent,
start and end. Nothing under ``src/`` changes, and ``uninstall`` puts every
original back, so untraced iterations in the same process run unwrapped.

The program is single-threaded, so spans nest strictly and one stack gives
each span its parent. A span's self time is its duration minus the
durations of its direct children.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import os
from collections import Counter
from time import perf_counter

# (module, class or None, attribute): each wrapped under its lookup name.
HOOKS = (
    ("adamls.config", None, "generate_profiles"),
    ("adamls.config", None, "run_learning_engine"),
    ("adamls.learning", None, "wcss_series"),
    ("adamls.learning", None, "kmeans_1d"),
    ("adamls.learning", None, "build_performance_matrix"),
    ("adamls.learning", None, "build_ci_matrix"),
    ("adamls.cli", None, "read_ci_matrix"),
    ("adamls.cli", None, "attach_anchor_stats"),
    ("adamls.cli", None, "run_simulation"),
    ("adamls.cli", None, "summarize"),
    ("adamls.cli", None, "write_results_csv"),
    ("adamls.cli", None, "write_event_log_csv"),
    ("adamls.cli", None, "write_ci_matrix"),
    ("adamls.cli", None, "write_profiles"),
    ("adamls.simulator", None, "generate_workload"),
    ("adamls.controller", "AdamlsController", "on_event"),
    ("adamls.controller", "AdamlsController", "note_completion"),
    ("adamls.controller", "AdamlsController", "monitor"),
    ("adamls.controller", "Analyzer", "analyze"),
    ("adamls.controller", None, "find_closest_cluster"),
    ("adamls.controller", None, "plan"),
    ("adamls.controller", None, "execute"),
)

# Modules whose CSV writers open files through the builtin ``open``; a
# module-level ``open`` shadows the builtin for that module only.
FILE_WRITER_MODULES = ("adamls.cli", "adamls.simulator", "adamls.learning", "adamls.profiles")

FILE_SPAN = "file.write"

# Span fields, stored as lists so the end time can be filled in place.
NAME, PARENT, START, END, TAG = range(5)


class Tracer:
    """Records spans and counters while installed; a plain object otherwise."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.missing_hooks: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def begin(self, name: str, tag=None) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0, tag])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {self.spans[idx][NAME]} closed out of order")

    def reset(self) -> None:
        """Drop the spans and counters recorded so far."""
        self.spans = []
        self.counters = Counter()
        self._stack = []

    # -- installing ------------------------------------------------------------

    def install(self) -> None:
        self.missing_hooks = []
        for module_name, class_name, attr in HOOKS:
            owner = importlib.import_module(module_name)
            if class_name is not None:
                owner = getattr(owner, class_name, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                # A later program version may rename a function; its metrics
                # then read 0 and the run lists the hook here.
                self.missing_hooks.append(f"{module_name}.{class_name or ''}.{attr}")
                continue
            name = ".".join(p for p in (module_name, class_name, attr) if p)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, attr, original))
        for module_name in FILE_WRITER_MODULES:
            module = importlib.import_module(module_name)
            self._restore.append((module, "open", None))
            module.open = self._traced_open

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._restore = []

    def _wrap(self, name: str, attr: str, fn):
        tag_of = _TAGGERS.get(attr)
        count_of = _COUNTERS.get(attr)
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = begin(name, tag_of(args) if tag_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                end(idx)
            if count_of:
                key, amount = count_of(args, result)
                self.counters[key] += amount
            return result

        return wrapper

    def _traced_open(self, file, mode="r", *args, **kwargs):
        fh = builtins.open(file, mode, *args, **kwargs)
        if "w" not in mode:
            return fh
        return _TracedFile(fh, file, self, self.begin(FILE_SPAN))


class _TracedFile:
    """A file opened for writing: its span lasts from open to close.

    On close the span's tag becomes the file's size in bytes.
    """

    def __init__(self, fh, path, tracer: Tracer, idx: int):
        self._fh = fh
        self._path = path
        self._tracer = tracer
        self._idx = idx

    def write(self, text):
        return self._fh.write(text)

    def close(self) -> None:
        if self._fh.closed:
            return
        self._fh.close()
        self._tracer.end(self._idx)
        self._tracer.spans[self._idx][TAG] = os.path.getsize(self._path)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __getattr__(self, name):
        return getattr(self._fh, name)


def _policy_label(args) -> str:
    return args[0].policy.label


_TAGGERS = {"run_simulation": _policy_label}

_COUNTERS = {
    "generate_profiles": lambda args, result: ("profiles.records", sum(len(p.records) for p in result)),
    "write_event_log_csv": lambda args, result: ("cli.event_rows", len(args[0])),
}


def self_times(spans) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own
