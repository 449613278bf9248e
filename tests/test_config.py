"""Reading JSON configs: every section through one reader, and its echo."""

import copy
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scroll import AdaptConfig, ConfigError, ExperimentConfig, SyntheticSpec


def file_config():
    return {
        "seed": 1,
        "data": {"train_path": "train.bin", "test_path": "test.bin", "format": "csv"},
        "schedule": {"kind": "gaussian", "sigma": 0.2, "peak_spacing": 1.5,
                     "batch_size": 4, "seed": 2},
        "classifier": {"kind": "ridge", "lambda": 0.5},
        "buffer": {"capacity": 30, "strategy": "reservoir", "seed": 3},
        "adapt": {"mode": "adapter", "epochs": 2, "batch_size": 8, "lr_head": 0.2,
                  "lr_adapter": 0.02, "temperature": 3.0, "optimizer": "sgd",
                  "rho": 0.9, "eps": 1e-5, "threshold": 100, "bottleneck": 3,
                  "init_kind": "random", "seed": 4},
        "intermediate_evals": [1, 2],
    }


def synthetic_config(schedule):
    return {
        "seed": 5,
        "data": {"synthetic": {"class_count": 3, "dim": 4, "samples_per_class": 5,
                               "cluster_spread": 0.1, "shift_strength": 0.2, "seed": 6}},
        "schedule": schedule,
        "classifier": {"kind": "ncc", "lambda": 1.0},
        "buffer": {"capacity": 0, "strategy": "exemplar", "seed": 7},
        "adapt": {"mode": "none"},
    }


# Between them the three documents set every field of every section.
BASES = (
    file_config(),
    synthetic_config({"kind": "class_split", "classes_per_batch": 2, "seed": 8}),
    synthetic_config({"kind": "explicit", "permutation": [2, 0, 1], "bounds": [0, 1, 3]}),
)

SECTIONS = {
    "config": (),
    "data": ("data",),
    "synthetic": ("data", "synthetic"),
    "schedule": ("schedule",),
    "classifier": ("classifier",),
    "buffer": ("buffer",),
    "adapt": ("adapt",),
}


def node_at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def with_value(doc, path, value):
    """A copy of ``doc`` with the entry at ``path`` replaced, if the path still exists."""
    if not path:
        return value
    doc = copy.deepcopy(doc)
    try:
        node_at(doc, path[:-1])[path[-1]] = value
    except (KeyError, IndexError, TypeError):
        pass  # an earlier replacement took the path away
    return doc


def entries(doc, path=()):
    """Every path in ``doc``, sections and list entries included, with its value."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from entries(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from entries(value, path + (i,))


def same_json_type(value, expected) -> bool:
    """Whether ``value`` has the JSON type of a valid document's ``expected``."""
    if isinstance(expected, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    return type(value) is type(expected)


@pytest.mark.parametrize("section", SECTIONS)
class TestSectionReader:
    def test_non_object_names_the_section(self, section):
        doc = with_value(BASES[1], SECTIONS[section], [1])
        with pytest.raises(ConfigError, match=f"^{section} must be an object, got list"):
            ExperimentConfig.from_dict(doc)

    def test_unknown_key_names_the_section(self, section):
        doc = copy.deepcopy(BASES[1])
        node_at(doc, SECTIONS[section])["bogus"] = 1
        with pytest.raises(ConfigError, match=rf"^unknown {section} fields: \['bogus'\]"):
            ExperimentConfig.from_dict(doc)


def hand_written_adapt_dict(cfg):
    """``AdaptConfig.to_dict`` as it was written out field by field."""
    out = {
        "mode": cfg.mode, "epochs": cfg.epochs, "batch_size": cfg.batch_size,
        "lr_head": cfg.lr_head, "lr_adapter": cfg.lr_adapter,
        "temperature": cfg.temperature, "optimizer": cfg.optimizer, "rho": cfg.rho,
        "eps": cfg.eps, "threshold": cfg.threshold, "init_kind": cfg.init_kind,
        "seed": cfg.seed,
    }
    if cfg.bottleneck is not None:
        out["bottleneck"] = cfg.bottleneck
    return out


def hand_written_synthetic_dict(spec):
    """``SyntheticSpec.to_dict`` as it was written out field by field."""
    return {
        "class_count": spec.class_count, "dim": spec.dim,
        "samples_per_class": spec.samples_per_class,
        "cluster_spread": spec.cluster_spread, "shift_strength": spec.shift_strength,
        "seed": spec.seed,
    }


class TestEchoFromFields:
    @pytest.mark.parametrize("bottleneck", [None, 3])
    def test_adapt_echo_matches_the_hand_written_one(self, bottleneck):
        for cfg in (AdaptConfig(bottleneck=bottleneck),
                    AdaptConfig.from_dict({**file_config()["adapt"], "bottleneck": bottleneck})):
            assert json.dumps(cfg.to_dict(), sort_keys=True) == json.dumps(
                hand_written_adapt_dict(cfg), sort_keys=True
            )

    def test_synthetic_echo_matches_the_hand_written_one(self):
        for spec in (SyntheticSpec(2, 2, 1),
                     SyntheticSpec.from_dict(BASES[1]["data"]["synthetic"])):
            assert json.dumps(spec.to_dict(), sort_keys=True) == json.dumps(
                hand_written_synthetic_dict(spec), sort_keys=True
            )


WRONG_VALUES = st.one_of(
    st.none(),
    st.lists(st.integers(-3, 3), max_size=3),
    st.text(max_size=4),
    st.booleans(),
    st.floats(),
    st.integers(2**63, 10**400),
    st.integers(-(10**400), -(2**63)),
)


@st.composite
def mistyped_documents(draw):
    """A valid document with one to three of its entries given wrong-typed values."""
    base = draw(st.sampled_from(BASES))
    paths = [path for path, _ in entries(base)]
    doc = base
    for _ in range(draw(st.integers(1, 3))):
        doc = with_value(doc, draw(st.sampled_from(paths)), draw(WRONG_VALUES))
    return base, doc


class TestMistypedDocuments:
    # The same examples on every run, and no deadline: a slow host must not
    # fail a correct run.
    @settings(max_examples=400, derandomize=True, deadline=None)
    @given(mistyped_documents())
    def test_config_error_or_a_well_typed_round_trip(self, case):
        base, doc = case
        try:
            cfg = ExperimentConfig.from_dict(doc)
        except ConfigError:
            return
        echo = cfg.to_dict()
        again = ExperimentConfig.from_dict(json.loads(json.dumps(echo)))
        assert again.to_dict() == echo
        assert again.config_hash() == cfg.config_hash()
        expected = dict(entries(ExperimentConfig.from_dict(base).to_dict()))
        for path, value in entries(echo):
            if path in expected:
                assert same_json_type(value, expected[path]), (path, value)
