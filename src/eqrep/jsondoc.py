"""The JSON files eqrep writes, all in `write`'s layout, and type-checked
reading of those it loads: model artifacts and dataset manifests.

A `JsonValue` is one value of a parsed document together with the key path
that leads to it (`params.trees[3].value`). Each accessor checks the value's
JSON type, and an array's shape, before the loader uses it; a mismatch or a
missing key raises ValueError naming the path, so a malformed file ends in
one message instead of an AttributeError or TypeError inside a loader.
JSON's `true` and `false` are not numbers here.
"""

import json

import numpy as np

# The dicts that `model_to_dict` builds hold numpy float64 values where a
# parsed file holds Python floats; both are numbers.
_NUMBERS = {int, float, np.float64}
_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}


def write(doc, path) -> None:
    """`doc` as a JSON file: keys sorted, an indent of 2, a final newline."""
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


class JsonValue:
    def __init__(self, value, what: str, path: str = ""):
        self.value = value
        self.what = what  # the document, for messages: "manifest", "model artifact"
        self.path = path

    def _expect(self, expected: str, got: str | None = None):
        where = f" {self.path}" if self.path else ""
        got = got or _TYPE_NAMES.get(type(self.value), type(self.value).__name__)
        return ValueError(f"{self.what}{where}: expected {expected}, got {got}")

    def obj(self) -> dict:
        if type(self.value) is not dict:
            raise self._expect("an object")
        return self.value

    def __getitem__(self, key: str) -> "JsonValue":
        """The member `key` of an object."""
        members = self.obj()
        if key not in members:
            where = f" in {self.path}" if self.path else ""
            raise ValueError(f"{self.what} lacks key {key!r}{where}")
        return JsonValue(members[key], self.what, f"{self.path}.{key}" if self.path else key)

    def get(self, key: str, default) -> "JsonValue":
        """The member `key` of an object, or `default` where it is absent."""
        return self[key] if key in self.obj() else JsonValue(default, self.what, key)

    def elements(self) -> list:
        """The elements of an array."""
        if type(self.value) is not list:
            raise self._expect("an array")
        return [JsonValue(v, self.what, f"{self.path}[{i}]") for i, v in enumerate(self.value)]

    def str(self) -> str:
        if type(self.value) is not str:
            raise self._expect("a string")
        return self.value

    def int(self) -> int:
        if type(self.value) is not int:
            raise self._expect("an integer")
        return self.value

    def number(self):
        if type(self.value) not in _NUMBERS:
            raise self._expect("a number")
        return self.value

    def array(self, shape: tuple, dtype=np.float64) -> np.ndarray:
        """A rectangular array of numbers (integers if `dtype` is int) with
        one axis per entry of `shape`; an entry that is not None fixes that
        axis's length."""
        leaves = [self.value]
        for _ in shape:
            if not all(type(v) is list for v in leaves):
                raise self._not_array(shape, dtype)
            leaves = [v for row in leaves for v in row]
        if not set(map(type, leaves)) <= ({int} if dtype is int else _NUMBERS):
            raise self._not_array(shape, dtype)
        try:
            arr = np.array(self.value, dtype=dtype)
        except (ValueError, OverflowError):  # ragged, or an integer beyond the dtype
            raise self._not_array(shape, dtype) from None
        if arr.ndim != len(shape) or any(n not in (None, m) for n, m in zip(shape, arr.shape)):
            raise self._not_array(shape, dtype, f"shape {arr.shape}")
        return arr

    def _not_array(self, shape, dtype, got=None):
        dims = ", ".join("n" if n is None else str(n) for n in shape)
        dims += "," if len(shape) == 1 else ""
        kind = "integers" if dtype is int else "numbers"
        return self._expect(f"a ({dims}) array of {kind}", got)
