"""Model, config and schedule (de)serialization plus history CSV emission.

Model JSON is self-validating: it carries a schema version and a hash of the
multi-index enumeration order, so a coefficient vector can never be silently
reinterpreted under a different index layout.  Floats survive round trips
bit-exactly (json uses shortest repr, which Python parses back exactly).
"""

import csv
import dataclasses
import hashlib
import json
import math

from .bases import LegendreBasis, PiecewiseConstantBasis
from .calibrate import CalibrationConfig
from .errors import ValidationError
from .indices import _set_bytes, enumerate_indices, index_space_dim
from .model import MAX_BYTES, ChaosModel
from .pricing import PricingMethod, PricingSchedule

MODEL_SCHEMA_VERSION = 1


def _read_json(path):
    """The JSON object in a file; anything else is a ValidationError."""
    with open(path, encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: not valid JSON ({exc})") from None
    if not isinstance(data, dict):
        raise ValidationError(f"{path}: expected a JSON object")
    return data


def _is_number(value):
    """A finite real number; a bool is not one."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(value))


_KINDS = {  # kind: (test, description)
    "integer": (lambda v: isinstance(v, int) and not isinstance(v, bool),
                "an integer"),
    "number": (_is_number, "a finite number"),
    "numbers": (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                "a list of finite numbers"),
    "object": (lambda v: isinstance(v, dict), "a JSON object"),
    "boolean": (lambda v: isinstance(v, bool), "true or false"),
    "string": (lambda v: isinstance(v, str), "a string"),
}
_TYPE_KINDS = {float: "number", int: "integer", bool: "boolean", str: "string",
               tuple: "numbers"}


def _field(where, data, key, kind):
    """data[key], checked to be present and of a kind in `_KINDS`."""
    if key not in data:
        raise ValidationError(f"{where}: missing key {key!r}")
    test, text = _KINDS[kind]
    if not test(data[key]):
        raise ValidationError(f"{where}: key {key!r} must be {text}, "
                              f"got {data[key]!r:.60}")
    return data[key]


def _object(where, data, keys):
    """data, checked to be a JSON object with no key outside `keys`."""
    if not isinstance(data, dict):
        raise ValidationError(f"{where}: expected a JSON object, got {data!r:.60}")
    unknown = sorted(set(data) - set(keys))
    if unknown:
        raise ValidationError(f"{where}: unknown keys {unknown}")
    return data


def _record(where, cls, data):
    """The dataclass `cls` built from a JSON object; its fields are the keys.

    A null value counts as missing; each value is checked against the kind of
    its field's annotation before the constructor runs.
    """
    fields = {f.name: f for f in dataclasses.fields(cls)}
    given = {k: v for k, v in _object(where, data, fields).items() if v is not None}
    missing = [k for k, f in fields.items()
               if k not in given and f.default is dataclasses.MISSING]
    if missing:
        raise ValidationError(f"{where}: missing keys {missing}")
    for key in given:
        _field(where, given, key, _TYPE_KINDS[fields[key].type])
    return _construct(where, cls, **given)


def _construct(where, build, *args, **kwargs):
    """build(*args, **kwargs), with `where` in front of its ValidationError."""
    try:
        return build(*args, **kwargs)
    except ValidationError as exc:
        raise ValidationError(f"{where}: {exc}") from None


def index_order_hash(p, m, d):
    """Digest of the enumeration order of the (P, M, d) multi-index set: the
    sha256 of "p|m|d|" and the indices' exponents, comma-separated within an
    index and semicolon-separated between them, fed one index at a time."""
    digest = hashlib.sha256(f"{p}|{m}|{d}|".encode())
    for i, a in enumerate(enumerate_indices(p, m, d)):
        if i:
            digest.update(b";")
        digest.update(",".join(map(str, a.exponents)).encode())
    return digest.hexdigest()[:16]


_BASES = {"piecewise": PiecewiseConstantBasis, "legendre": LegendreBasis}


def _basis_to_json(basis):
    """{"kind": kind, **fields}: the basis dataclass's fields are the keys."""
    for kind, cls in _BASES.items():
        if isinstance(basis, cls):
            return {"kind": kind, **dataclasses.asdict(basis)}
    raise ValidationError(f"cannot serialize basis of type {type(basis).__name__}")


def _basis_from_json(where, data):
    kind = data.get("kind")
    if kind not in _BASES:
        raise ValidationError(f"{where}: unknown basis kind {kind!r}")
    fields = {k: v for k, v in data.items() if k != "kind"}
    return _record(where, _BASES[kind], fields)


def serialize_model(model, path):
    payload = {
        "schema_version": MODEL_SCHEMA_VERSION,
        "s0": model.s0,
        "p": model.p,
        "m": model.m,
        "d": model.d,
        "basis": _basis_to_json(model.basis),
        "index_order_hash": index_order_hash(model.p, model.m, model.d),
        "coefficients": list(map(float, model.coefficients)),
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")


_MODEL_KEYS = (("s0", "number"), ("p", "integer"), ("m", "integer"),
               ("d", "integer"), ("basis", "object"), ("coefficients", "numbers"))


def load_model(path):
    data = _read_json(path)
    version = data.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValidationError(
            f"{path}: schema version {version}, expected {MODEL_SCHEMA_VERSION}"
        )
    _object(path, data, ("schema_version", "index_order_hash", *dict(_MODEL_KEYS)))
    for key, kind in _MODEL_KEYS:
        _field(path, data, key, kind)
    # the coefficient list bounds the index count, and the byte check the
    # entries of the index set, before the hash enumerates it
    n = _construct(path, index_space_dim, data["p"], data["m"], data["d"]) - 1
    if len(data["coefficients"]) != n:
        raise ValidationError(
            f"{path}: key 'coefficients' has {len(data['coefficients'])} values; "
            f"(p, m, d) = ({data['p']}, {data['m']}, {data['d']}) needs {n}"
        )
    need = _set_bytes(data["p"], data["m"], data["d"])
    if need > MAX_BYTES:
        raise ValidationError(
            f"{path}: the {n} indices of (p, m, d) = ({data['p']}, {data['m']}, "
            f"{data['d']}) need {need} bytes, above the {MAX_BYTES}-byte cap")
    want = index_order_hash(data["p"], data["m"], data["d"])
    if data.get("index_order_hash") != want:
        raise ValidationError(
            f"{path}: enumeration-order hash {data.get('index_order_hash')!r} "
            f"does not match this build's order ({want}); coefficients would "
            "be misaligned"
        )
    basis = _basis_from_json(f"{path}: basis", data["basis"])
    return _construct(path, ChaosModel, data["s0"], data["p"], data["m"], data["d"],
                      basis, data["coefficients"])


def write_history(history, path):
    """History CSV: iteration, loss, best loss, wall seconds, resim flag."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "loss", "best_loss", "wall_seconds",
                         "resimulated"])
        for row in history:
            writer.writerow([row.iteration, repr(row.loss), repr(row.best_loss),
                             repr(row.wall_seconds), int(row.resimulated)])


@dataclasses.dataclass(frozen=True)
class _ModelSection:
    """A config's `model` section: the shape of a fresh piecewise model."""

    p: int
    m: int
    d: int
    horizon: float

    def __post_init__(self):
        index_space_dim(self.p, self.m, self.d)  # names a p, m or d out of range
        if self.horizon <= 0:
            raise ValidationError(f"key 'horizon' must be positive, got {self.horizon}")


def load_config(path):
    """CalibrationConfig from JSON; unknown keys are rejected.

    A `model` section ({p, m, d, horizon}) may ride along to define the model
    shape for a fresh calibration; it is returned separately.
    """
    data = _read_json(path)
    model_spec = data.pop("model", None)
    if model_spec is not None:
        _record(f"{path}: model section", _ModelSection, model_spec)
    return _record(path, CalibrationConfig, data), model_spec


def load_schedule(path):
    """PricingSchedule from JSON: {"default": {...}, "entries": [[T, {...}]]}."""
    data = _object(path, _read_json(path), ("default", "entries"))
    default = _record(f"{path}: key 'default'", PricingMethod,
                      data.get("default", {"kind": "mc"}))
    entries = data.get("entries", [])
    if not isinstance(entries, list):
        raise ValidationError(f"{path}: key 'entries' must be a list, got {entries!r}")
    methods = []
    for i, entry in enumerate(entries):
        where = f"{path}: entry {i}"
        if not (isinstance(entry, list) and len(entry) == 2 and _is_number(entry[0])):
            raise ValidationError(
                f"{where}: expected a [maturity, {{method}}] pair, got {entry!r}")
        methods.append((float(entry[0]), _record(where, PricingMethod, entry[1])))
    return _construct(path, PricingSchedule, default, tuple(methods))
