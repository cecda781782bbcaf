"""Model, config and schedule (de)serialization plus history CSV emission.

Model JSON is self-validating: it carries a schema version and a hash of the
multi-index enumeration order, so a coefficient vector can never be silently
reinterpreted under a different index layout.  Floats survive round trips
bit-exactly (json uses shortest repr, which Python parses back exactly).
"""

import csv
import hashlib
import json

from .bases import LegendreBasis, PiecewiseConstantBasis
from .calibrate import CalibrationConfig
from .errors import ValidationError
from .indices import enumerate_indices
from .model import ChaosModel
from .pricing import PricingMethod, PricingSchedule

MODEL_SCHEMA_VERSION = 1


def index_order_hash(p, m, d):
    """Digest of the enumeration order of the (P, M, d) multi-index set."""
    text = ";".join(
        ",".join(map(str, a.exponents)) for a in enumerate_indices(p, m, d)
    )
    return hashlib.sha256(f"{p}|{m}|{d}|{text}".encode()).hexdigest()[:16]


def _basis_to_json(basis):
    if isinstance(basis, PiecewiseConstantBasis):
        return {"kind": "piecewise", "grid": list(basis.grid)}
    if isinstance(basis, LegendreBasis):
        return {"kind": "legendre", "horizon": basis.horizon, "size": basis.size}
    raise ValidationError(f"cannot serialize basis of type {type(basis).__name__}")


def _basis_from_json(data):
    kind = data.get("kind")
    if kind == "piecewise":
        return PiecewiseConstantBasis(tuple(data["grid"]))
    if kind == "legendre":
        return LegendreBasis(data["horizon"], data["size"])
    raise ValidationError(f"unknown basis kind {kind!r}")


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


def load_model(path):
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    version = data.get("schema_version")
    if version != MODEL_SCHEMA_VERSION:
        raise ValidationError(
            f"{path}: schema version {version}, expected {MODEL_SCHEMA_VERSION}"
        )
    want = index_order_hash(data["p"], data["m"], data["d"])
    if data.get("index_order_hash") != want:
        raise ValidationError(
            f"{path}: enumeration-order hash {data.get('index_order_hash')!r} "
            f"does not match this build's order ({want}); coefficients would "
            "be misaligned"
        )
    basis = _basis_from_json(data["basis"])
    return ChaosModel(data["s0"], data["p"], data["m"], data["d"], basis,
                      data["coefficients"])


def write_history(history, path):
    """History CSV: iteration, loss, best loss, wall seconds, resim flag."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["iteration", "loss", "best_loss", "wall_seconds",
                         "resimulated"])
        for row in history:
            writer.writerow([row.iteration, repr(row.loss), repr(row.best_loss),
                             repr(row.wall_seconds), int(row.resimulated)])


def load_config(path):
    """CalibrationConfig from JSON; unknown keys are rejected.

    A `model` section ({p, m, d, horizon}) may ride along to define the model
    shape for a fresh calibration; it is returned separately.
    """
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    model_spec = data.pop("model", None)
    known = set(CalibrationConfig.__dataclass_fields__)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValidationError(f"{path}: unknown config keys {unknown}")
    unknown = sorted(set(model_spec or ()) - {"p", "m", "d", "horizon"})
    if unknown:
        raise ValidationError(f"{path}: unknown model-section keys {unknown}")
    return CalibrationConfig(**data), model_spec


def _method_from_json(data):
    known = set(PricingMethod.__dataclass_fields__)
    unknown = sorted(set(data) - known)
    if unknown:
        raise ValidationError(f"unknown pricing-method keys {unknown}")
    return PricingMethod(**data)


def load_schedule(path):
    """PricingSchedule from JSON: {"default": {...}, "entries": [[T, {...}]]}."""
    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    default = _method_from_json(data.get("default", {"kind": "mc"}))
    entries = tuple(
        (float(t), _method_from_json(method))
        for t, method in data.get("entries", [])
    )
    return PricingSchedule(default=default, entries=entries)
