"""Every name the benchmark tracer wraps still exists in houghton_kit.

``perfbench/tracer.py`` resolves its targets by name, so deleting or renaming
one breaks traced benchmark runs.  The tracer imports only the standard
library, so it is loaded here by path.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def resolves(module, attr) -> bool:
    owner = importlib.import_module(f"houghton_kit.{module}")
    for part in attr.split("."):
        owner = getattr(owner, part, None)
    return callable(owner)


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    names = [(module, attr) for _, module, attr, _ in tracer.TARGETS]
    names += [("rays", "RaySystem.window"), ("rays", "Window.__len__")]
    assert [name for name in names if not resolves(*name)] == []
