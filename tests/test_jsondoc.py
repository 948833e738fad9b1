"""The strict JSON writer, the type-checked JSON reader and the two loaders
built on it: whatever the JSON, `load_model` and `load_manifest` return or
raise ValueError, and what they return obeys every rule on its numbers."""

import copy
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from eqrep import dataset as ds
from eqrep import jsondoc
from eqrep.audio import MAX_SAMPLE_RATE
from eqrep.eq import GAIN_LIMIT_DB
from eqrep.features import FEATURE_DIM, FeatureContract
from eqrep.jsondoc import JsonValue
from eqrep.models import (MODEL_KINDS, TrainConfig, load_model, model_to_dict, train_forest,
                          train_linear, train_mlp)


def _refuse_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def strict_json(path):
    """The JSON file `path` parsed as strict JSON: NaN, Infinity and
    -Infinity are refused."""
    return json.loads(Path(path).read_text(), parse_constant=_refuse_constant)


class TestJsonValue:
    def test_missing_key_names_its_path(self):
        doc = JsonValue({"a": {"b": {}}}, "doc")
        with pytest.raises(ValueError, match="^doc lacks key 'a'$"):
            JsonValue({}, "doc")["a"]
        with pytest.raises(ValueError, match=r"^doc lacks key 'c' in a\.b$"):
            doc["a"]["b"]["c"]

    @pytest.mark.parametrize("value, method, got", [
        ([], "obj", "an array"), ({}, "str", "an object"), (1.0, "int", "a number"),
        (True, "int", "a boolean"), (None, "number", "null"), ("1", "number", "a string"),
        ({}, "elements", "an object"),
    ])
    def test_wrong_type_names_both_types(self, value, method, got):
        with pytest.raises(ValueError, match=f"^doc x: expected .*, got {got}$"):
            getattr(JsonValue({"x": value}, "doc")["x"], method)()

    def test_elements_carry_their_index(self):
        [_, second] = JsonValue({"x": [1, "a"]}, "doc")["x"].elements()
        with pytest.raises(ValueError, match=r"^doc x\[1\]: expected an integer"):
            second.int()

    @pytest.mark.parametrize("value, shape, dtype", [
        ([1, 2.5], (2,), np.float64),
        ([[1, 2], [3, 4], [5, 6]], (None, 2), np.float64),
        ([], (None,), int),
        ([[]], (1, 0), np.float64),
    ])
    def test_array_reads_numbers(self, value, shape, dtype):
        arr = JsonValue({"x": value}, "doc")["x"].array(shape, dtype)
        np.testing.assert_array_equal(arr, np.array(value, dtype=dtype).reshape(arr.shape))
        assert arr.dtype == np.dtype(dtype)

    @pytest.mark.parametrize("value, shape, dtype", [
        ([1, True], (2,), np.float64),          # a boolean is not a number
        (["1"], (1,), np.float64),               # nor is a numeric string
        ([1.5], (1,), int),                      # integer arrays take integers only
        ([[1], [2, 3]], (None, None), np.float64),  # ragged
        ([[1], 2], (None, None), np.float64),    # mixed depth
        ([[1, 2]], (None,), np.float64),         # one axis too many
        ([1, 2], (3,), np.float64),              # wrong length
        ([2 ** 70], (1,), int),                  # beyond int64
        ([10 ** 400], (1,), np.float64),         # beyond float64
        ({}, (None,), np.float64),
    ])
    def test_array_rejects(self, value, shape, dtype):
        with pytest.raises(ValueError, match=r"^doc x: expected a \("):
            JsonValue({"x": value}, "doc")["x"].array(shape, dtype)


class TestRules:
    """The rule a number reader is given: a float is finite, and a number
    lies within the bounds. A refusal names the element and the value."""

    @pytest.mark.parametrize("value, read, message", [
        ([1.0, math.nan], lambda v: v.array((None,)), "x[1]: expected a finite number, got nan"),
        ([[1.0], [-math.inf]], lambda v: v.array((2, 1)),
         "x[1][0]: expected a finite number, got -inf"),
        ([[0, 1], [2, 40]], lambda v: v.array((None, 2), int, low=-1, high=16),
         "x[1][1]: expected an integer from -1 to 16, got 40"),
        ([24.0, -24.5], lambda v: v.array((2,), low=-24.0, high=24.0),
         "x[1]: expected a number from -24.0 to 24.0, got -24.5"),
        ([1.0, 0.0], lambda v: v.array((2,), low=5e-324),
         "x[1]: expected a number >= 5e-324, got 0.0"),
        (0, lambda v: v.int(1), "x: expected an integer >= 1, got 0"),
        (3, lambda v: v.int(1, 2), "x: expected an integer from 1 to 2, got 3"),
        (2, lambda v: v.int(1, 1), "x: expected 1, got 2"),
        (2 ** 70, lambda v: v.int(0, 10), f"x: expected an integer from 0 to 10, got {2 ** 70}"),
        (math.inf, lambda v: v.number(), "x: expected a finite number, got inf"),
        (1.5, lambda v: v.number(2, 3), "x: expected a number from 2 to 3, got 1.5"),
        (10 ** 400, lambda v: v.number(), f"x: expected a finite number, got {10 ** 400}"),
    ])
    def test_first_number_that_breaks_the_rule_is_named(self, value, read, message):
        with pytest.raises(ValueError) as excinfo:
            read(JsonValue({"x": value}, "doc")["x"])
        assert str(excinfo.value) == f"doc {message}"

    @pytest.mark.parametrize("value, read", [
        ([-24.0, 24.0], lambda v: v.array((2,), low=-24.0, high=24.0)),
        ([[-1, 16]], lambda v: v.array((1, 2), int, low=-1, high=16)),
        (2 ** 70, lambda v: v.int(2 ** 70, 2 ** 70)),
        (2 ** 70, lambda v: v.number()),
        (5e-324, lambda v: v.number(low=5e-324)),
    ])
    def test_bounds_are_inclusive(self, value, read):
        read(JsonValue({"x": value}, "doc")["x"])


class TestWrite:
    def test_layout(self, tmp_path):
        doc = {"b": [1.5, 2], "a": {"z": None, "y": "s"}}
        jsondoc.write(doc, tmp_path / "doc.json")
        assert (tmp_path / "doc.json").read_text() == \
            json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    @pytest.mark.parametrize("doc, where, value", [
        ({"b": {"c": [0.0, np.float64(np.inf)]}, "a": math.nan}, "a", "nan"),
        ({"b": {"c": [0.0, np.float64(np.inf)]}}, "b.c[1]", "inf"),
        ([{"mse": 1.0}, {"mse": -math.inf}], "[1].mse", "-inf"),
    ])
    def test_non_finite_number_is_refused_and_leaves_no_file(self, tmp_path, doc, where, value):
        path = tmp_path / "doc.json"
        with pytest.raises(ValueError) as excinfo:
            jsondoc.write(doc, path)
        assert str(excinfo.value) == f"{path} {where}: expected a finite number, got {value}"
        assert list(tmp_path.iterdir()) == []

    def test_refused_document_leaves_the_old_file(self, tmp_path):
        path = tmp_path / "doc.json"
        jsondoc.write({"mse": 1.0}, path)
        with pytest.raises(ValueError):
            jsondoc.write({"mse": math.inf}, path)
        assert strict_json(path) == {"mse": 1.0}
        assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]

    def test_a_symlink_is_written_through(self, tmp_path):
        (tmp_path / "link.json").symlink_to("doc.json")
        jsondoc.write({"mse": 1.0}, tmp_path / "link.json")
        assert (tmp_path / "link.json").is_symlink()
        assert strict_json(tmp_path / "doc.json") == {"mse": 1.0}

    def test_other_errors_pass_through_and_leave_no_file(self, tmp_path):
        with pytest.raises(TypeError):
            jsondoc.write({"x": object()}, tmp_path / "doc.json")
        assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------- loaders


def _parsed(doc):
    """`doc` as a JSON file would give it back."""
    return json.loads(json.dumps(doc))


def _valid_documents():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((40, FEATURE_DIM))
    y = x[:, :5] + 0.1 * rng.standard_normal((40, 5))
    contract = {"sample_rate": 44100, "frame_size": 2048, "hop_size": 512}
    models = [train_linear(x, y), train_mlp(x, y, TrainConfig(epochs=2, hidden_dim=3)),
              train_forest(x[:12], y[:12], tree_count=2, seed=0)]
    samples = ds.sample_table([f"C2-{i:05d}" for i in range(3)], ["C2"] * 3, y[:3], x[:3])
    manifest = ds.DatasetManifest(FeatureContract(), samples, 42)
    return {
        **{kind: _parsed(model_to_dict(m, contract, {"test_mse": 0.1}))
           for kind, m in zip(("linear", "mlp", "forest"), models)},
        "manifest": _parsed(ds.manifest_to_dict(manifest)),
    }


VALID = _valid_documents()


def _paths(doc, prefix=()):
    """Every key path in `doc`, containers and leaves alike."""
    members = doc.items() if isinstance(doc, dict) else enumerate(doc) \
        if isinstance(doc, list) else ()
    for key, value in members:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


PATHS = {name: list(_paths(doc)) for name, doc in VALID.items()}
# The key paths of each document's feature contract, which the mutant
# documents replace as often as all their other key paths together.
CONTRACT_PATHS = {
    "manifest": [("sample_rate",), ("stft",), ("stft", "frame_size"), ("stft", "hop_size")],
    **{kind: [("train_config",), *(("train_config", key)
                                   for key in ("sample_rate", "frame_size", "hop_size"))]
       for kind in MODEL_KINDS},
}

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=3)
                      | st.dictionaries(st.text(max_size=4), children, max_size=3)),
    max_leaves=8,
)


@pytest.fixture(scope="module")
def artifact_path(tmp_path_factory):
    return tmp_path_factory.mktemp("loaders") / "doc.json"


def _load(name, doc, path):
    """What `doc`, written to a file, loads as: the manifest, or for a model
    kind (model, feature contract) as `predict` reads them. A ValueError is
    an accepted outcome and gives None; any other exception fails the test."""
    path.write_text(json.dumps(doc))
    try:
        if name == "manifest":
            return ds.load_manifest(path)
        model, train_config, _ = load_model(path)
        return model, FeatureContract.from_doc(JsonValue(train_config, "model artifact",
                                                         "train_config"))
    except ValueError:
        return None


def _mutant(data, name, paths, values):
    """A copy of VALID[name] whose value at a key path drawn from `paths` is
    replaced by a draw from `values(old value)`."""
    doc = copy.deepcopy(VALID[name])
    *parents, key = data.draw(paths)
    owner = doc
    for parent in parents:
        owner = owner[parent]
    owner[key] = data.draw(values(owner[key]))
    return doc


def _assert_obeys_every_rule(loaded):
    """What a loader returned holds only finite floats, gains within
    +/-GAIN_LIMIT_DB and a feature contract in range."""
    if isinstance(loaded, ds.DatasetManifest):
        contract, doc = loaded.contract, ds.manifest_to_dict(loaded)
        assert np.all(np.abs(loaded.samples.gains_db) <= GAIN_LIMIT_DB)
    else:
        (model, contract), doc = loaded, model_to_dict(loaded[0])
    try:
        json.dumps(doc, allow_nan=False)
    except ValueError:
        pytest.fail("a NaN or infinity loaded")
    frame, hop = contract.stft.frame_size, contract.stft.hop_size
    assert 1 <= contract.sample_rate <= MAX_SAMPLE_RATE, contract
    assert frame >= 2 and frame & (frame - 1) == 0 and 1 <= hop <= frame, contract


def test_valid_documents_load(artifact_path):
    for name, doc in VALID.items():
        artifact_path.write_text(json.dumps(doc))
        loaded = ds.load_manifest(artifact_path) if name == "manifest" \
            else load_model(artifact_path)
        assert loaded is not None


LOADER_SETTINGS = settings(max_examples=100, deadline=None)


@LOADER_SETTINGS
@given(name=st.sampled_from(sorted(VALID)), doc=json_values)
def test_any_json_value_loads_or_raises_value_error(artifact_path, name, doc):
    _load(name, doc, artifact_path)


@LOADER_SETTINGS
@given(data=st.data(), name=st.sampled_from(sorted(VALID)))
def test_one_value_of_another_type_loads_or_raises_value_error(artifact_path, data, name):
    doc = _mutant(data, name, st.sampled_from(PATHS[name]),
                  lambda old: json_values.filter(lambda v: type(v) is not type(old)))
    _load(name, doc, artifact_path)


@settings(max_examples=100, deadline=None, database=None)
@seed(37)
@given(data=st.data(), name=st.sampled_from(sorted(VALID)))
def test_a_mutant_that_loads_obeys_every_rule(artifact_path, data, name):
    """One value of a valid document, often of its feature contract, replaced
    by any JSON value or integer: the document is refused, or what loads
    obeys every rule on its numbers."""
    paths = st.sampled_from(CONTRACT_PATHS[name]) | st.sampled_from(PATHS[name])
    loaded = _load(name, _mutant(data, name, paths, lambda old: json_values | st.integers()),
                   artifact_path)
    if loaded is not None:
        _assert_obeys_every_rule(loaded)
