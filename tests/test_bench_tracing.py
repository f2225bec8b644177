"""The benchmark's tracer patches package functions by name; a renamed
or removed one, or one the code no longer calls, would otherwise break
or empty only a traced benchmark run."""
import importlib
import importlib.util
import itertools
from pathlib import Path

import pytest

from jointbma.cli import main
from jointbma.model_space import FactorSpec, enumerate_hierarchical_models

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


TABLE_SPACE = ("[space]\nfactors = A:2, B:2, C:2\nforced = 1, A, B, C\n"
               "candidates = A*B, A*C, B*C\n\n"
               "[prior]\ntemplate = term_blocks\nscale = 4\n\n")


@pytest.mark.parametrize("task, variants", [
    ("rjmcmc", "adjusted_info"),
    ("prior-probs", "uniform, adjusted_c, adjusted_exact, loglinear_adjusted"),
], ids=["rjmcmc", "prior-probs"])
def test_traced_run_sees_one_policy_weight_per_model(tmp_path, capsys, task,
                                                     variants):
    # The benchmark reads model_space.log_prior_model_weight's calls from
    # its trace, so the table tasks must price each model through it.
    table = tmp_path / "table.csv"
    rows = [f"{a},{b},{c},{5 + 3 * i}" for i, (a, b, c) in enumerate(
        itertools.product(("a1", "a2"), ("b1", "b2"), ("c1", "c2")))]
    table.write_text("A,B,C,count\n" + "\n".join(rows) + "\n",
                     encoding="utf-8")
    config = tmp_path / "exp.ini"
    config.write_text(
        f"[experiment]\ntask = {task}\nseed = 3\n\n"
        f"[data]\nsource = csv\npath = {table}\nlevels.A = a1, a2\n"
        "levels.B = b1, b2\nlevels.C = c1, c2\n\n" + TABLE_SPACE
        + f"[policy]\nvariants = {variants}\n\n[rjmcmc]\niterations = 200\n",
        encoding="utf-8")
    spec = FactorSpec(factors=(("A", 2), ("B", 2), ("C", 2)),
                      forced_terms=((), ("A",), ("B",), ("C",)),
                      candidate_terms=(("A", "B"), ("A", "C"), ("B", "C")))
    n_models = len(enumerate_hierarchical_models(spec))
    tracing = load_tracing()
    with tracing.Tracer() as tracer:
        assert main([task, "--config", str(config)]) == 0
    capsys.readouterr()
    calls = tracing.layer_table(tracer.spans(), tracer.names)[
        "model_space.log_prior_model_weight"]["calls"]
    assert n_models == 8
    assert calls == n_models * len(variants.split(","))
