"""The type-checked JSON reader and the two loaders built on it: whatever the
JSON, `load_model` and `load_manifest` return or raise ValueError."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eqrep import dataset as ds
from eqrep.features import FEATURE_DIM, StftConfig
from eqrep.jsondoc import JsonValue
from eqrep.models import (TrainConfig, load_model, model_to_dict, train_forest,
                          train_linear, train_mlp)


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
    samples = [ds.DatasetSample(f"C2-{i:05d}", "C2", y[i], x[i]) for i in range(3)]
    manifest = ds.DatasetManifest(44100, StftConfig(), ds.standard_bands(), samples, 42)
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
    """Load `doc` from a file as `name` ("manifest" or a model kind); a
    ValueError is an accepted outcome, any other exception fails the test."""
    path.write_text(json.dumps(doc))
    try:
        if name == "manifest":
            ds.load_manifest(path)
        else:
            load_model(path)
    except ValueError:
        pass


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
    doc = copy.deepcopy(VALID[name])
    *parents, key = data.draw(st.sampled_from(PATHS[name]))
    owner = doc
    for parent in parents:
        owner = owner[parent]
    old = owner[key]
    owner[key] = data.draw(json_values.filter(lambda v: type(v) is not type(old)))
    _load(name, doc, artifact_path)
