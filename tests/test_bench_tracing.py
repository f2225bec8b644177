"""The benchmark's tracer patches package functions by name; a renamed
or removed one would otherwise break only a traced benchmark run."""
import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_and_counted_names_resolve_in_the_package():
    tracing = load_tracing()
    for mod, qual in tracing.TRACED + tracing.COUNTED:
        target = importlib.import_module(f"{tracing.PACKAGE}.{mod}")
        for attr in qual.split("."):
            target = getattr(target, attr)
        assert callable(target), f"{mod}.{qual}"
    traced = {f"{mod}.{qual}" for mod, qual in tracing.TRACED}
    assert set(tracing.KEEP_RESULT) <= traced
