"""Every file the program writes is opened where the benchmark's tracer looks.

The tracer (``perfbench/tracing.py``) shadows the builtin ``open`` in the
modules named by its ``FILE_WRITER_MODULES`` and times each file they open
for writing as ``cli.write_s`` and ``cli.bytes_written``. A writer in any
other module, or one that opens its file another way, would drop out of both
metrics without an error, so this test keeps file writes in those modules.
"""

import ast
from pathlib import Path

import adamls

# The same modules as FILE_WRITER_MODULES in perfbench/tracing.py.
FILE_WRITER_MODULES = {"cli", "simulator", "learning", "profiles"}
# Attribute calls that open or write a file without the module's ``open``.
UNTRACED_OPENERS = {"open", "write_text", "write_bytes"}


def opens_for_writing(call: ast.Call) -> bool:
    """Whether an ``open(...)`` call may write: its mode is not a literal read mode."""
    mode = call.args[1] if len(call.args) > 1 else None
    mode = next((kw.value for kw in call.keywords if kw.arg == "mode"), mode)
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def file_writes(source: str, module: str) -> list[str]:
    """The calls of one module that write a file outside the tracer's view."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Attribute) and func.attr in UNTRACED_OPENERS:
            found.append(f"{module}:{node.lineno}: .{func.attr}(...)")
        elif (isinstance(func, ast.Name) and func.id == "open"
              and module not in FILE_WRITER_MODULES and opens_for_writing(node)):
            found.append(f"{module}:{node.lineno}: open(...) for writing")
    return found


def test_only_file_writer_modules_open_files_for_writing():
    package = Path(adamls.__file__).parent
    found = [
        write
        for path in sorted(package.glob("*.py"))
        for write in file_writes(path.read_text(encoding="utf-8"), path.stem)
    ]
    assert found == []


def test_guard_sees_each_kind_of_write():
    source = (
        "open(p)\nopen(p, 'r', newline='')\nopen(p, mode='rb')\n"
        "open(p, 'w')\nopen(p, mode='a')\nopen(p, 'r+')\nopen(p, m)\n"
        "path.write_text(t)\npath.open('w')\n"
    )
    assert [w.split(":")[1] for w in file_writes(source, "metrics")] == ["4", "5", "6", "7", "8", "9"]
    assert [w.split(":")[1] for w in file_writes(source, "cli")] == ["8", "9"]
