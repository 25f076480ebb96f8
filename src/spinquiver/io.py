"""JSON serialization of points, coordinates, and reports.

Complex numbers are always two-element arrays [re, im]; matrices are
row-major nested lists.  Readers check every key and its nesting before
building anything, and their ValueError names the key at fault.  File writes
are atomic (write-temp-rename).
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .params import ModelSpec, ParameterSet, derive_params
from .points import LocalCoordinates, RepPoint


def encode_complex(z) -> list:
    z = complex(z)
    return [z.real, z.imag]


def encode_matrix(mat) -> list:
    return [[encode_complex(z) for z in row] for row in np.atleast_2d(np.asarray(mat))]


_NESTING = {1: "a list", 2: "a matrix (a list of rows)", 3: "a list of matrices"}


def _key(data, key: str, where: str = ""):
    if not isinstance(data, dict) or key not in data:
        raise ValueError(f"missing key {key!r}{where}")
    return data[key]


def _pairs(data, key: str, depth: int) -> np.ndarray:
    """data[key], [re, im] pairs nested depth lists deep, as a complex array with depth axes."""
    value = _key(data, key)
    try:
        pairs = np.array(value, dtype=float)
    except (TypeError, OverflowError, ValueError):
        pairs = np.zeros(0)
    if pairs.ndim != depth + 1 or pairs.shape[-1] != 2:
        raise ValueError(f"{key!r} must be {_NESTING[depth]} of [re, im] pairs")
    return pairs.view(complex)[..., 0]


def point_to_dict(point: RepPoint, params: ParameterSet) -> dict:
    return {
        "spec": {"m": point.spec.m, "d": point.spec.d, "n": point.spec.n},
        "q": [encode_complex(v) for v in params.q],
        "X": [encode_matrix(mat) for mat in point.X],
        "Y": [encode_matrix(mat) for mat in point.Y],
        "V": [encode_matrix(mat) for mat in point.V],
        "W": [encode_matrix(mat) for mat in point.W],
    }


def point_from_dict(data: dict):
    spec = ModelSpec(*(_key(_key(data, "spec"), k, " in 'spec'") for k in ("m", "d", "n")))
    m, d, n = spec.m, spec.d, spec.n
    q = _pairs(data, "q", 1)
    if len(q) != m:
        raise ValueError(f"'q' needs {m} deformation parameters, got {len(q)}")
    blocks = []
    for key, shape in (("X", (m, n, n)), ("Y", (m, n, n)), ("V", (d, 1, n)), ("W", (d, n, 1))):
        blocks.append(_pairs(data, key, 3))
        if blocks[-1].shape != shape:
            raise ValueError(f"{key!r} has shape {blocks[-1].shape}; "
                             f"(m, d, n) = ({m}, {d}, {n}) needs {shape}")
    params = derive_params([complex(v) for v in q], n)
    return RepPoint.make(spec, *blocks), params


def coords_to_dict(coords: LocalCoordinates) -> dict:
    return {
        "x": [encode_complex(v) for v in coords.x],
        "a": encode_matrix(coords.a),
        "c": encode_matrix(coords.c),
    }


def coords_from_dict(data: dict) -> LocalCoordinates:
    return LocalCoordinates.make(_pairs(data, "x", 1), _pairs(data, "a", 2), _pairs(data, "c", 2))


def write_json(path: str, payload: dict) -> None:
    """Atomic JSON write: temp file in the target directory, then rename."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(payload, fh, indent=1, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)
