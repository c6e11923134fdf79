"""Every command run once under a profiler: the src/adamls functions that
none of them calls are exactly a pinned list, each kept for a reason."""

import contextlib
import dataclasses
import functools
import importlib
import inspect
import io
import pkgutil
import sys

import adamls
from adamls import cli

from .test_cli import write_config

# The functions no command calls, and why each stays in src/adamls.
_SPEC = "the scalar utility, the spec that acceptance criterion 1 pins; exported"
_RECORDS = "read by the benchmark's profiles.records counter (ROADMAP item 9)"
UNREACHED = {
    "metrics.utility_confidence_term": _SPEC,
    "metrics.utility_response_term": _SPEC,
    "metrics.utility_per_request": _SPEC,
    "profiles.ModelProfile.record": "raises a bad row's KpiRecord error; valid rows never call it",
    "profiles.ModelProfile.records": _RECORDS,
    "profiles.ProfileRecords.__init__": _RECORDS,
    "profiles.ProfileRecords.__len__": _RECORDS,
    "profiles.ProfileRecords.__getitem__": _RECORDS,
    "profiles.ProfileRecords.__eq__": _RECORDS,
    "controller.EventLog.__len__": "read by the benchmark's cli.event_rows counter",
    "simulator.PolicySpec.label": "read by the benchmark's tracer and harness",
}


def defined_functions() -> dict:
    """The code object of every function and method written in src/adamls,
    mapped to its name as module.qualname."""
    found = {}
    for info in pkgutil.iter_modules(adamls.__path__):
        module = importlib.import_module(f"adamls.{info.name}")
        for obj in vars(module).values():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            members = vars(obj).values() if inspect.isclass(obj) else (obj,)
            for member in members:
                for fn in _functions(member):
                    if fn.__code__.co_filename == module.__file__:
                        found[fn.__code__] = f"{info.name}.{fn.__qualname__}"
    return found


def _functions(member):
    if isinstance(member, (staticmethod, classmethod)):
        member = member.__func__
    if isinstance(member, property):
        return [f for f in (member.fget, member.fset, member.fdel) if f is not None]
    if isinstance(member, functools.cached_property):
        return [member.func]
    return [member] if inspect.isfunction(member) else []


def test_every_function_but_the_pinned_ones_is_called(tmp_path, tiny_config):
    """learn, compare, report (with and without --timeseries), simulate for
    adamls, naive and one static model, a csv-source learn and compare, and
    study on two seeds. The config sets every section, utility included, so
    each record's check runs here and not only at import."""
    out, csv_out = tmp_path / "out", tmp_path / "csv_out"
    path = write_config(tmp_path, tiny_config, output_dir=str(out))
    csv_config = dataclasses.replace(
        tiny_config,
        profiles=dataclasses.replace(
            tiny_config.profiles, source="csv", csv_path=str(out / "profiles.csv")
        ),
        output_dir=str(csv_out),
    )
    (tmp_path / "csv").mkdir()
    csv_path = write_config(tmp_path / "csv", csv_config)
    commands = [
        ["learn", "--config", str(path)],
        ["compare", "--config", str(path)],
        ["report", "--config", str(path)],
        ["report", "--config", str(path), "--timeseries"],
        *(["simulate", "--config", str(path), "--policy", policy]
          for policy in ("adamls", "naive", "static:fast")),
        ["learn", "--config", str(csv_path)],
        ["compare", "--config", str(csv_path)],
        ["study", "--config", str(path), "--out", str(tmp_path / "study"), "--seeds", "1", "2"],
    ]
    called = set()

    def profile(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in commands]
    finally:
        sys.setprofile(previous)
    assert codes == [0] * len(commands)
    unreached = {name for code, name in defined_functions().items() if code not in called}
    assert sorted(unreached) == sorted(UNREACHED)
