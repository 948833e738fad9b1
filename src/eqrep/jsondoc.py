"""The JSON files eqrep writes and loads, and the rules on their numbers.

`write` writes strict JSON (no NaN or infinity), streamed into a temporary
file beside the target that replaces the target only on success. A
`JsonValue` is one value of a parsed document with the key path that leads
to it (`params.trees[3].value`). Its accessors check the value's JSON type
(`true` and `false` are not numbers), an array's shape, that a float is
finite and that a number lies within the bounds the loader gives. A missing
key or a broken rule raises one ValueError naming the document, the key path
down to the element (`manifest samples[0].gains_db[1]`) and the value.
"""

import json
import os
from pathlib import Path

import numpy as np

# The dicts that `model_to_dict` builds hold numpy float64 values where a
# parsed file holds Python floats; both are numbers.
_NUMBERS = {int, float, np.float64}
_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer",
               float: "a number", bool: "a boolean", type(None): "null"}
_LARGEST = float(np.finfo(np.float64).max)  # default bounds: they refuse NaN and infinity


def write(doc, path) -> None:
    """`doc` as strict JSON in the file `path`; a NaN or infinity in it is
    refused with one ValueError naming `path`, its key path and the value."""
    target = Path(os.path.realpath(path))  # through a symlink, as open() writes
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        os.replace(tmp, target)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, ValueError) and (found := _non_finite(doc)):
            raise ValueError(f"{path} {found}") from None
        raise


def _non_finite(value, path=""):
    """The refusal of the first NaN or infinity in `value`, in `write`'s order."""
    if isinstance(value, float) and not np.isfinite(value):
        return f"{path}: expected a finite number, got {float(value)}"
    members = (sorted(value.items()) if isinstance(value, dict) else
               enumerate(value) if isinstance(value, (list, tuple)) else ())
    return next(filter(None, (_non_finite(v, f"{path}[{k}]" if type(k) is int else
                                          f"{path}.{k}" if path else k)
                              for k, v in members)), None)


def _rule(kind: str, low, high) -> str:
    """What a number read as `kind` ("an integer", "a number") must be."""
    if low == high:
        return str(low)
    if high == _LARGEST:
        return "a finite number" if low == -_LARGEST else f"{kind} >= {low}"
    return f"{kind} from {low} to {high}"


class JsonValue:
    def __init__(self, value, what: str, path: str = ""):
        self.value = value
        self.what = what  # the document, for messages: "manifest", "model artifact"
        self.path = path

    def _expect(self, expected: str, got: str | None = None):
        where = f" {self.path}" if self.path else ""
        got = got or _TYPE_NAMES.get(type(self.value), type(self.value).__name__)
        return ValueError(f"{self.what}{where}: expected {expected}, got {got}")

    def _typed(self, types: set, expected: str):
        if type(self.value) not in types:
            raise self._expect(expected)
        return self.value

    def obj(self) -> dict:
        return self._typed({dict}, "an object")

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
        return [JsonValue(v, self.what, f"{self.path}[{i}]")
                for i, v in enumerate(self._typed({list}, "an array"))]

    def str(self) -> str:
        return self._typed({str}, "a string")

    def int(self, low=-_LARGEST, high=_LARGEST) -> int:
        self._check(np.asarray(self._typed({int}, "an integer")), "an integer", low, high)
        return self.value

    def number(self, low=-_LARGEST, high=_LARGEST):
        self._check(np.asarray(self._typed(_NUMBERS, "a number")), "a number", low, high)
        return self.value

    def array(self, shape: tuple, dtype=np.float64, low=-_LARGEST, high=_LARGEST):
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
        self._check(arr, "an integer" if dtype is int else "a number", low, high)
        return arr

    def _check(self, arr: np.ndarray, kind: str, low, high) -> None:
        """Refuse the first element of `arr` that is NaN, infinite or outside [low, high]."""
        ok = (arr >= low) & (arr <= high)
        if not ok.all():
            at = tuple(np.argwhere(~np.broadcast_to(ok, arr.shape))[0])
            element = JsonValue(None, self.what, self.path + "".join(f"[{i}]" for i in at))
            raise element._expect(_rule(kind, low, high), str(arr[at]))

    def _not_array(self, shape, dtype, got=None):
        dims = ", ".join("n" if n is None else str(n) for n in shape) + "," * (len(shape) == 1)
        kind = "integers" if dtype is int else "numbers"
        return self._expect(f"a ({dims}) array of {kind}", got)
