"""Config-file grammar: parsing, defaults, overrides, and rejection paths."""
import hashlib

import numpy as np
import pytest

from jointbma import Baseline, FactorSpec, KPolicy, ModelId, ParseError, \
    load_config
from jointbma.config import parse_model_label, parse_term
from jointbma.model_space import ModelPriorPolicy


def write(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


FULL = """\
[experiment]
task = sweep
seed = 42
format = json
out = results.json

[data]
source = generator
generator = dfn

[prior]
template = gprior
alpha = 1.5
lambda = 0.5
c2 = 100.0
c2_grid = 1e2,1e6,5

[policy]
variants = uniform, adjusted_c
baseline = dimension
log_weight = -0.25

[sweep]
top_k = 5
watch = 1+X4+X5, 1
"""


def test_full_config_round_trip(tmp_path):
    text = FULL
    cfg = load_config(write(tmp_path, text))
    assert cfg.task == "sweep"
    assert cfg.seed == 42
    assert cfg.fmt == "json"
    assert cfg.out == "results.json"
    assert cfg.data.source == "generator"
    assert cfg.data.generator == "dfn"
    assert cfg.prior.template == "gprior"
    assert cfg.prior.alpha == 1.5
    assert cfg.prior.lam == 0.5
    assert cfg.prior.c2 == 100.0
    assert np.allclose(cfg.prior.c2_grid, np.geomspace(1e2, 1e6, 5),
                       rtol=1e-15)
    base = Baseline.dimension(-0.25)
    assert cfg.policies == (
        ModelPriorPolicy(variant="uniform", baseline=base),
        ModelPriorPolicy(variant="adjusted_c", baseline=base))
    assert cfg.sweep.top_k == 5
    assert cfg.sweep.watch == (ModelId.linear([3, 4], intercept=True),
                               ModelId.linear([], intercept=True))
    assert cfg.config_hash == hashlib.sha256(text.encode()).hexdigest()
    # Non-ASCII text hashes as its UTF-8 bytes, as hashlib's digest does.
    text += "# c² ≥ 1e2, Größe ✓\n"
    cfg = load_config(write(tmp_path, text, name="utf8.ini"))
    assert cfg.config_hash == hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_minimal_config_defaults(tmp_path):
    cfg = load_config(write(tmp_path, "[experiment]\ntask = shrinkage\n"))
    assert cfg.task == "shrinkage"
    assert cfg.seed is None
    assert cfg.fmt == "csv"
    assert cfg.out is None
    assert cfg.data.source is None and cfg.data.levels == {}
    assert cfg.data.response == "y"
    assert cfg.prior.template == "gprior"
    assert cfg.prior.alpha == 0.0 and cfg.prior.lam == 0.0
    assert cfg.prior.c2 == 1.0 and cfg.prior.c2_grid is None
    assert cfg.prior.metric == "information" and cfg.prior.scales == 1.0
    assert cfg.prior.means is None
    assert cfg.policies == (ModelPriorPolicy(variant="uniform"),)
    assert cfg.space is None
    assert cfg.sweep.top_k == 10 and cfg.sweep.watch == ()
    assert cfg.rjmcmc.iterations == 10000 and cfg.rjmcmc.thin == 1
    assert cfg.shrinkage.k_policy == KPolicy.fixed()
    assert cfg.shrinkage.inv_c2_grid is None
    assert cfg.cv.mode == "exact" and cfg.cv.num_draws == 2000
    assert cfg.cv.covariates == ()


def test_command_line_overrides(tmp_path):
    path = write(tmp_path, FULL)
    cfg = load_config(path, seed_override=0, out_override="alt.csv",
                      fmt_override="csv")
    # seed 0 is a real override; the loader must not treat it as unset.
    assert cfg.seed == 0
    assert cfg.out == "alt.csv"
    assert cfg.fmt == "csv"


def test_task_override_rules(tmp_path):
    bare = write(tmp_path, "[experiment]\nseed = 3\n", name="bare.ini")
    assert load_config(bare, task_override="cv").task == "cv"
    with pytest.raises(ParseError, match="'task' is required"):
        load_config(bare)

    named = write(tmp_path, "[experiment]\ntask = sweep\nseed = 3\n",
                  name="named.ini")
    assert load_config(named, task_override="sweep").task == "sweep"
    with pytest.raises(ParseError,
                       match="names task 'sweep' but the command line"):
        load_config(named, task_override="cv")


def test_space_section(tmp_path):
    text = ("[experiment]\ntask = prior-probs\n\n"
            "[space]\n"
            "factors = O:3, H:2, A:4\n"
            "forced = 1, O, H, A, O*H\n"
            "candidates = H*A\n")
    cfg = load_config(write(tmp_path, text))
    assert cfg.space == FactorSpec(
        factors=(("O", 3), ("H", 2), ("A", 4)),
        forced_terms=((), ("O",), ("H",), ("A",), ("O", "H")),
        candidate_terms=(("H", "A"),))


def test_prior_dotted_keys(tmp_path):
    text = ("[experiment]\ntask = prior-probs\n\n"
            "[prior]\n"
            "template = term_blocks\n"
            "scale = 9.0\n"
            "scale.H*A = 0.05\n"
            "mean.H*A = 0.204 -0.088 -0.271\n"
            "metric = information\n"
            "metric.O = identity\n")
    prior = load_config(write(tmp_path, text)).prior
    assert prior.template == "term_blocks"
    assert prior.scales == {"default": 9.0, ("H", "A"): 0.05}
    assert set(prior.means) == {("H", "A")}
    assert np.array_equal(prior.means[("H", "A")],
                          np.array([0.204, -0.088, -0.271]))
    assert prior.metric == {"default": "information", ("O",): "identity"}


def test_data_section_levels(tmp_path):
    text = ("[experiment]\ntask = prior-probs\n\n"
            "[data]\n"
            "source = csv\n"
            "path = counts.csv\n"
            "response = count\n"
            "levels.O = none,light,heavy\n"
            "levels.H = yes,no\n")
    data = load_config(write(tmp_path, text)).data
    assert data.source == "csv" and data.path == "counts.csv"
    assert data.response == "count"
    assert data.levels == {"O": ("none", "light", "heavy"),
                           "H": ("yes", "no")}


def test_shrinkage_and_cv_sections(tmp_path):
    text = ("[experiment]\ntask = shrinkage\n\n"
            "[shrinkage]\n"
            "n = 20\nbeta_hat = 0.8\nsigma2 = 2.0\n"
            "k_policy = proportional_inverse_c\nk0 = 0.5\n"
            "inv_c2_grid = 1e-8,1e-2,7\n\n"
            "[cv]\nmode = exact\nnum_draws = 500\ncovariates = 4, 5\n")
    cfg = load_config(write(tmp_path, text))
    s = cfg.shrinkage
    assert (s.n, s.beta_hat, s.sigma2) == (20.0, 0.8, 2.0)
    assert s.k_policy == KPolicy.proportional_inverse_c(0.5)
    assert np.allclose(s.inv_c2_grid, np.geomspace(1e-8, 1e-2, 7), rtol=1e-15)
    assert cfg.cv.mode == "exact"
    assert cfg.cv.num_draws == 500
    assert cfg.cv.covariates == (4, 5)


def test_calibrated_baseline(tmp_path):
    text = ("[experiment]\ntask = sweep\nseed = 1\n\n"
            "[policy]\nvariants = uniform\nbaseline = calibrated\n"
            "n0 = 24\npsi0 = 1.0\n")
    cfg = load_config(write(tmp_path, text))
    assert cfg.policies[0].baseline == Baseline.calibrated(24.0, 1.0)

    partial = ("[experiment]\ntask = sweep\nseed = 1\n\n"
               "[policy]\nbaseline = calibrated\nn0 = 24\n")
    with pytest.raises(ParseError, match="psi0.*required"):
        load_config(write(tmp_path, partial, name="partial.ini"))


def test_grid_expansion_edge_cases(tmp_path):
    single = ("[experiment]\ntask = sweep\nseed = 1\n\n"
              "[prior]\nc2_grid = 7.5,7.5,1\n")
    cfg = load_config(write(tmp_path, single))
    assert np.array_equal(cfg.prior.c2_grid, np.array([7.5]))
    # A one-point grid is its low end exactly, whatever the high end.
    for low, high in (("0.3", "0.7"), ("5e-324", "1e300"), ("3.7", "1e308")):
        text = ("[experiment]\ntask = sweep\nseed = 1\n\n"
                f"[prior]\nc2_grid = {low},{high},1\n")
        cfg = load_config(write(tmp_path, text, name="one.ini"))
        assert np.array_equal(cfg.prior.c2_grid, np.array([float(low)]))

    for bad in ("1,10", "10,1,5", "0,1,5", "1,10,0"):
        text = ("[experiment]\ntask = sweep\nseed = 1\n\n"
                f"[prior]\nc2_grid = {bad}\n")
        with pytest.raises(ParseError, match="c2_grid"):
            load_config(write(tmp_path, text, name="bad_grid.ini"))


def test_parse_term_unit():
    assert parse_term("1") == ()
    assert parse_term(" O * H ") == ("O", "H")
    assert parse_term("A") == ("A",)
    with pytest.raises(ParseError, match="malformed term"):
        parse_term("O**H")
    with pytest.raises(ParseError, match="malformed term"):
        parse_term("")


def test_parse_model_label_unit():
    assert parse_model_label("0") == ModelId.linear([], intercept=False)
    assert parse_model_label("1") == ModelId.linear([], intercept=True)
    assert parse_model_label("1+X4+X5") == ModelId.linear(
        [3, 4], intercept=True)
    assert parse_model_label("X2+X7") == ModelId.linear(
        [1, 6], intercept=False)
    for bad in ("1+x4", "X0", "y", "1+"):
        with pytest.raises(ParseError, match="malformed model label"):
            parse_model_label(bad)


def test_seed_requirements(tmp_path):
    gen = ("[experiment]\ntask = sweep\n\n"
           "[data]\nsource = generator\ngenerator = dfn\n")
    with pytest.raises(ParseError, match="seed is required"):
        load_config(write(tmp_path, gen, name="gen.ini"))
    assert load_config(write(tmp_path, gen, name="gen.ini"),
                       seed_override=5).seed == 5

    rj = "[experiment]\ntask = rjmcmc\n"
    with pytest.raises(ParseError, match="seed is required"):
        load_config(write(tmp_path, rj, name="rj.ini"))

    gelfand = "[experiment]\ntask = cv\n\n[cv]\nmode = gelfand\n"
    with pytest.raises(ParseError, match="seed is required"):
        load_config(write(tmp_path, gelfand, name="gelfand.ini"))

    exact = "[experiment]\ntask = cv\n\n[cv]\nmode = exact\n"
    assert load_config(write(tmp_path, exact, name="exact.ini")).seed is None


BAD_CONFIGS = [
    ("[prior]\nc2 = 1\n", "missing the \\[experiment\\] section"),
    ("[experiment]\ntask = dance\n", "unknown task"),
    ("[experiment]\ntask = sweep\nseed = x\n", "not a valid int"),
    ("[experiment]\ntask = sweep\nseed = -1\n", "seed must be nonnegative"),
    ("[experiment]\ntask = sweep\nseed = 1\nformat = yaml\n",
     "unknown output format"),
    ("[experiment]\ntask = sweep\nseed = 1\n\n[policy]\nvariants = magic\n",
     "unknown policy variant"),
    ("[experiment]\ntask = sweep\nseed = 1\n\n[policy]\nbaseline = tilted\n",
     "unknown baseline kind"),
    ("[experiment]\ntask = sweep\nseed = 1\n\n[policy]\n"
     "baseline = dimension\n", "log_weight.*required"),
    ("[experiment]\ntask = sweep\nseed = 1\n\n[prior]\ntemplate = flat\n",
     "unknown prior template"),
    ("[experiment]\ntask = sweep\nseed = 1\n\n[data]\nsource = ftp\n",
     "unknown data source"),
    ("[experiment]\ntask = sweep\nseed = 1\n\n[data]\n"
     "source = generator\ngenerator = magic\n", "unknown generator"),
    ("[experiment]\ntask = shrinkage\n\n[shrinkage]\nk_policy = random\n",
     "unknown k_policy"),
    ("[experiment]\ntask = cv\nseed = 1\n\n[cv]\nmode = loo\n",
     "unknown cv mode"),
    ("[experiment]\ntask = cv\nseed = 1\n\n[cv]\ncovariates = 0, 4\n",
     "1-based"),
    ("[experiment]\ntask = prior-probs\n\n[space]\nforced = O\n",
     "factors.*required"),
    ("[experiment]\ntask = prior-probs\n\n[space]\nfactors = O3\n",
     "must be written name:levels"),
    ("[experiment]\ntask = prior-probs\n\n[space]\nfactors = O:three\n",
     "non-integer level count"),
    ("[experiment]\ntask = prior-probs\n\n[space]\nfactors = ,\n",
     "factor list is empty"),
    ("not even ini\n", "malformed config"),
    ("[experiment]\ntask = sweep\ntask = cv\n", "malformed config"),
]


@pytest.mark.parametrize("text,pattern", BAD_CONFIGS,
                         ids=[p[:28] for _, p in BAD_CONFIGS])
def test_rejected_configs(tmp_path, text, pattern):
    with pytest.raises(ParseError, match=pattern):
        load_config(write(tmp_path, text))


def test_unreadable_path(tmp_path):
    with pytest.raises(ParseError, match="cannot read config"):
        load_config(str(tmp_path / "missing.ini"))


def test_non_utf8_config_is_a_parse_error(tmp_path):
    path = tmp_path / "latin1.ini"
    path.write_bytes(b"[experiment]\ntask = shrinkage\n# caf\xe9\n")
    with pytest.raises(ParseError, match="is not UTF-8 text"):
        load_config(str(path))


def test_hash_tracks_exact_bytes(tmp_path):
    a = "[experiment]\ntask = shrinkage\n"
    b = "[experiment]\ntask = shrinkage\n# note\n"
    ha = load_config(write(tmp_path, a, name="a.ini")).config_hash
    hb = load_config(write(tmp_path, b, name="b.ini")).config_hash
    # Comments change the digest: provenance records the file as written.
    assert ha != hb
    assert ha == hashlib.sha256(a.encode()).hexdigest()
