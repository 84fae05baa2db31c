"""The benchmark tracer (perfbench/tracer.py) patches module attributes by
name; a refactor that renames or removes one would blind a layer metric or
break every traced run.  These checks catch that in the unit suite."""
import importlib
import importlib.util
import inspect
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracer", Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
)
TRACER = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(TRACER)
SITES = [site for sites in TRACER.TRACED.values() for site in sites]


def _resolve(module_name, attr):
    """What Tracer.install replaces: the owner's own __dict__ entry after the dotted path."""
    owner = importlib.import_module(module_name)
    *path, leaf = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return vars(owner)[leaf]


def test_every_traced_name_resolves():
    missing = []
    for module_name, attr in SITES:
        try:
            original = _resolve(module_name, attr)
        except (AttributeError, KeyError):
            original = None
        if not (callable(original) or isinstance(original, classmethod)):
            missing.append(f"{module_name}.{attr}")
    assert missing == []


def test_counted_parameters_exist():
    # the tracer binds these parameter names to count distinct inputs per job
    missing = []
    for name, params in TRACER._INPUT_PARAMS.items():
        module_name, attr = TRACER.TRACED[name][0]
        signature = inspect.signature(_resolve(module_name, attr))
        missing += [f"{name}({p})" for p in params if p not in signature.parameters]
    assert missing == []
