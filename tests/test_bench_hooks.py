"""The benchmark's per-layer spans wrap program functions by name.

perfbench/tracing.py installs its wrappers on module attributes; a rename
or removal in the program leaves a name unwrapped and silently zeroes the
layer metrics built on it. This guard fails instead.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert tracer.missing == []
    finally:
        tracer.uninstall()
