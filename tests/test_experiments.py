"""Bound-validation machinery: stats helpers, corpora, quick runs."""

import hashlib
import json
import math

import pytest

from bvattack.boolfn import linear_structures_exhaustive, vector_structures_exhaustive
from bvattack.experiments import (
    ALL_EXPERIMENTS,
    BoundCheck,
    ExperimentConfig,
    binomial_margin,
    default_shape,
    example_quadratic,
    hoeffding_success_bound,
    inner_product_function,
    load_experiment_config,
    planted_boolean,
    planted_vector,
    run_experiment,
)
from bvattack.rng import seeded_rng

from oracles import derivative_value_counts


def test_hoeffding_bound_values():
    assert hoeffding_success_bound(50, 0.25) == pytest.approx(1 - math.exp(-6.25))
    assert hoeffding_success_bound(200, 0.1) == pytest.approx(1 - math.exp(-4.0))
    assert hoeffding_success_bound(1, 1.0) == pytest.approx(1 - math.exp(-2.0))


def test_hoeffding_bound_domain():
    with pytest.raises(ValueError):
        hoeffding_success_bound(0, 0.25)
    with pytest.raises(ValueError):
        hoeffding_success_bound(10, 0.0)
    with pytest.raises(ValueError):
        hoeffding_success_bound(10, -0.5)


def test_binomial_margin():
    assert binomial_margin(0.5, 100, z=2.0) == pytest.approx(2 * math.sqrt(0.25 / 100))
    assert binomial_margin(1.0, 50) == 0.0
    with pytest.raises(ValueError):
        binomial_margin(0.5, 0)


def test_bound_check_directions():
    assert BoundCheck.at_least("x", 0.95, 0.99, 0.05, 100).passed
    assert not BoundCheck.at_least("x", 0.90, 0.99, 0.05, 100).passed
    assert BoundCheck.at_most("x", 0.10, 0.05, 0.06, 100).passed
    assert not BoundCheck.at_most("x", 0.12, 0.05, 0.06, 100).passed


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(which="T9", n=4, trials=100, seed=1)
    with pytest.raises(ValueError):
        ExperimentConfig(which="T1", n=4, trials=29, seed=1)
    with pytest.raises(ValueError):
        ExperimentConfig(which="T1", n=0, trials=100, seed=1)
    # the report records z as a JSON number, and a negative z tightens every check
    for z in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError, match="z must be"):
            ExperimentConfig(which="T1", n=4, trials=100, seed=1, z=z)
    ExperimentConfig(which="T1", n=4, trials=100, seed=1, z=0)
    # --which all passes one variant to every experiment, so all of them check it
    for which in ALL_EXPERIMENTS:
        with pytest.raises(ValueError, match="unknown variant"):
            ExperimentConfig(which=which, n=4, trials=100, seed=1, variant="bogus")
        for variant in ("default", "random", "bent"):
            ExperimentConfig(which=which, n=4, trials=100, seed=1, variant=variant)


def test_strong_toy_rejects_widths_without_a_strong_sbox(monkeypatch):
    import bvattack.experiments as ex

    # every 1- and 2-bit permutation is affine, so the redraw loop would never end
    def unreachable(*args, **kwargs):
        raise AssertionError("an S-box drawn before the width check")

    monkeypatch.setattr(ex.ToyCipher, "generate", unreachable)
    for n in (1, 2):
        with pytest.raises(ValueError, match="needs n >= 3"):
            run_experiment(ExperimentConfig("T2", n, trials=30, seed=1, variant="strong-toy"))
    ExperimentConfig("T2", 3, trials=30, seed=1, variant="strong-toy")


def test_config_rejects_widths_beyond_the_table_cap(monkeypatch):
    import bvattack.experiments as ex

    def unreachable(*args, **kwargs):
        raise AssertionError("tables built before the width check")

    for name in ("seeded_rng", "inner_product_function", "random_permutation"):
        monkeypatch.setattr(ex, name, unreachable)
    for cls, name in ((ex.Feistel3, "random"), (ex.EvenMansour, "random"),
                      (ex.ToyCipher, "generate")):
        monkeypatch.setattr(cls, name, unreachable)
    # T4 tabulates 2n-bit blocks; T6-T8 and T2 strong-toy sample the n + 2n-bit
    # keyed family G (through its 2n-bit slice G0), so G's width is capped
    over = [("T2", 25, "default"), ("T2", 9, "strong-toy"), ("T3", 25, "default"),
            ("T4", 13, "default"), ("T5", 25, "default"), ("T5", 30, "default"),
            ("T6", 9, "default"), ("T7", 9, "default"), ("T8", 9, "default")]
    for which, n, variant in over:
        with pytest.raises(ValueError, match="bit tables"):
            run_experiment(ExperimentConfig(which, n, trials=30, seed=1, variant=variant))
    edge = [("T1", 40, "default"), ("T2", 24, "bent"), ("T2", 8, "strong-toy"),
            ("T3", 24, "default"), ("T4", 12, "default"), ("T5", 24, "default"),
            ("T6", 8, "default"), ("T7", 8, "default"), ("T8", 8, "default")]
    for which, n, variant in edge:
        ExperimentConfig(which, n, trials=30, seed=1, variant=variant)


def test_default_shape():
    assert default_shape("T5") == (8, 500)
    assert default_shape("T8") == (4, 1000)
    with pytest.raises(ValueError):
        default_shape("T0")


def test_example_quadratic_table():
    assert example_quadratic().table.tolist() == [0, 1, 0, 1, 0, 1, 1, 0]


def test_inner_product_is_balanced_in_every_direction():
    f = inner_product_function(4)
    for a in range(1, 16):
        assert derivative_value_counts(f.table, 4, a) == (8, 8)
    with pytest.raises(ValueError):
        inner_product_function(3)


def test_planted_boolean_generator():
    f, a, i = planted_boolean(5, seeded_rng(400))
    u0, u1 = linear_structures_exhaustive(f)
    assert a in (u0 if i == 0 else u1)
    # seed chosen so the two flips do not land on one {x, x+a} pair, which
    # would cancel and leave the structure intact
    noisy, a2, _ = planted_boolean(5, seeded_rng(403), flips=2)
    zeros, ones = derivative_value_counts(noisy.table, 5, a2)
    assert 0 < min(zeros, ones)  # damage broke exactness


def test_planted_vector_generator():
    F, a, alpha = planted_vector(4, 4, seeded_rng(402))
    assert (a, alpha) in vector_structures_exhaustive(F)


@pytest.mark.parametrize("which", ALL_EXPERIMENTS)
def test_quick_run_passes(which):
    n, _ = default_shape(which)
    res = run_experiment(ExperimentConfig(which=which, n=n, trials=30, seed=52))
    assert res.passed, [c for c in res.checks if not c.passed]
    json.dumps(res.to_dict())  # reports must serialize


@pytest.mark.parametrize("variant", ["bent", "strong-toy"])
def test_t2_variants_quick(variant):
    n = 6 if variant == "bent" else 4
    res = run_experiment(ExperimentConfig(which="T2", n=n, trials=30, seed=53,
                                          variant=variant))
    assert res.passed
    assert res.details["variant"] == variant


def test_load_experiment_config(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"which": "T5", "seed": 11, "trials": 60}))
    cfg = load_experiment_config(path)
    assert cfg == ExperimentConfig(which="T5", n=8, trials=60, seed=11)

    path.write_text(json.dumps({"which": "T5"}))
    with pytest.raises(ValueError):
        load_experiment_config(path)
    path.write_text(json.dumps({"which": "T5", "seed": 1, "bogus": 2}))
    with pytest.raises(ValueError):
        load_experiment_config(path)
    path.write_text(json.dumps([1, 2]))
    with pytest.raises(ValueError):
        load_experiment_config(path)
    path.write_text(json.dumps({"which": "T5", "seed": 11, "z": 2, "variant": "bent"}))
    assert load_experiment_config(path) == ExperimentConfig(
        which="T5", n=8, trials=500, seed=11, z=2.0, variant="bent")
    for raw in ({"which": ["T5"], "seed": 1}, {"which": "T5", "seed": None},
                {"which": "T5", "seed": True}, {"which": "T5", "seed": 1.0},
                {"which": "T5", "seed": 1, "n": 6.7}, {"which": "T5", "seed": 1, "n": None},
                {"which": "T5", "seed": 1, "trials": "60"},
                {"which": "T5", "seed": 1, "trials": False},
                {"which": "T5", "seed": 1, "z": "3"}, {"which": "T5", "seed": 1, "z": True},
                {"which": "T5", "seed": 1, "variant": 2},
                {"which": "T5", "seed": 1, "variant": "bogus"}):
        path.write_text(json.dumps(raw))
        with pytest.raises(ValueError):
            load_experiment_config(path)


# to_dict() SHA-256 (sort_keys JSON) of small runs, recorded before the runners
# were rebuilt on shared helpers; any change to a label, seed tag, RNG draw or
# margin shows here.  Most shapes are small enough that some rates fall
# strictly between 0 and 1, where the binomial margin is nonzero.
PINNED_REPORTS = [
    ("T1", 4, "default", "70dd6d23996e25c590c997580ae182172b772342b13000590c93f04691681cf5"),
    ("T2", 4, "default", "d629475dfa406591279bd3c0ecfdbc6c839c60e52e63c15ebc9f529b0a06ab7f"),
    ("T2", 4, "bent", "3ebe04e841bb2d6019bc92b68d575f46c4576e5a762602cbec61b7be6d04743f"),
    ("T2", 3, "strong-toy", "64fe47174d73a2fae802f3451ec9af145a7d9df44e67409ac068c964ad75b4df"),
    # wider keyed families, searched and bounded through their zero-key slices
    ("T2", 5, "strong-toy", "8280d3c8944741f0c2dece1a7e310304e5827881d7f1260994f061d00df6386a"),
    ("T2", 6, "strong-toy", "15c01c76d6922f591cd1b4c99f4c8ab1479c0b8e6ec04f28cdd06412545f0c72"),
    ("T3", 3, "default", "779cf17f522140fce77cfd131f00a80e310658bb178306dd2ab0c4a538ba5726"),
    ("T4", 3, "default", "5f89eb3ab1d934a8028f5e38a5f6bac1f2e6f2e889f155dd0b1714542f26348d"),
    ("T5", 3, "default", "4a1ea857e8e2ef417be9f2cbc12043b813370ab04f481fd4f17a3e848e20c565"),
    ("T6", 3, "default", "338fd39cd434316142feda6ada240ed7014c6a6550bce9d2668f0739d6cd2a3e"),
    ("T7", 4, "default", "96b1f5d5662a6541f8c28df745e95641782a553c1f3e41d181c735a1afa6b417"),
    # the shape the t7-sampling benchmark runs: 279,936 draws per output bit
    ("T7", 6, "default", "586bb9732fe4251d9123b3651bdfc91df0cca763c88e02e902da9b6abecc2257"),
    ("T8", 4, "default", "fd05c1183ecb830337500bf22cd3f11513c10228963f436c99b2c702835874bf"),
]


# each shape is named by experiment and variant, a second shape of one pair by its n too
REPORT_IDS = []
for _w, _n, _v, _ in PINNED_REPORTS:
    REPORT_IDS.append(f"{_w}-{_v}" if f"{_w}-{_v}" not in REPORT_IDS else f"{_w}-{_v}-n{_n}")


@pytest.mark.parametrize("which,n,variant,digest", PINNED_REPORTS, ids=REPORT_IDS)
def test_report_bytes_pinned(which, n, variant, digest):
    res = run_experiment(ExperimentConfig(which=which, n=n, trials=30, seed=7, variant=variant))
    text = json.dumps(res.to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _keyed_rounds_calls(monkeypatch, cfg: ExperimentConfig) -> list:
    """(public, first_keys) of every keyed-family build while cfg runs."""
    from bvattack.ciphers import ToyCipherPublic

    calls = []
    build = ToyCipherPublic._keyed_rounds

    def counted(self, first_keys):
        calls.append((self, first_keys))
        return build(self, first_keys)

    monkeypatch.setattr(ToyCipherPublic, "_keyed_rounds", counted)
    run_experiment(cfg)
    return calls


def test_t6_tabulates_each_family_once(monkeypatch):
    # per trial, the slice G0 once: the attack's search builds it and the
    # coverage check of its found differential reads the same table; the whole
    # family G never
    calls = _keyed_rounds_calls(monkeypatch, ExperimentConfig(which="T6", n=3, trials=30, seed=7))
    assert [first_keys for _, first_keys in calls] == [1] * 30
    assert len({id(public) for public, _ in calls}) == 30


def test_t2_strong_toy_tabulates_each_slice_once(monkeypatch):
    # the slice G0 once per instance, for the search and the spectra
    calls = _keyed_rounds_calls(monkeypatch, ExperimentConfig(which="T2", n=3, trials=30, seed=7,
                                                              variant="strong-toy"))
    assert [first_keys for _, first_keys in calls] == [1] * 20
    assert len({id(public) for public, _ in calls}) == 20


def test_quality_grid_detail_order():
    # verify-theorems writes details unsorted, so their key order is part of the report
    for which, n in (("T1", 4), ("T3", 3)):
        details = run_experiment(ExperimentConfig(which=which, n=n, trials=30, seed=7)).details
        assert list(details) == ["corpus_size", "grid"]
        for entry in details["grid"]:
            assert list(entry) == ["p", "eps", "bound", "found", "good", "found_rate"]
