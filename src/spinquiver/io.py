"""JSON serialization of points, coordinates, and reports.

Complex numbers are always two-element arrays [re, im]; matrices are
row-major nested lists.  File writes are atomic (write-temp-rename).
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


def decode_complex(pair) -> complex:
    return complex(pair[0], pair[1])


def encode_matrix(mat) -> list:
    return [[encode_complex(z) for z in row] for row in np.atleast_2d(np.asarray(mat))]


def decode_matrix(rows) -> np.ndarray:
    return np.array([[decode_complex(z) for z in row] for row in rows], dtype=complex)


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
    spec = ModelSpec(**{k: int(v) for k, v in data["spec"].items()})
    if len(data["q"]) != spec.m:
        raise ValueError(f"need {spec.m} deformation parameters q, got {len(data['q'])}")
    params = derive_params([decode_complex(v) for v in data["q"]], spec.n)
    point = RepPoint.make(
        spec,
        [decode_matrix(mat) for mat in data["X"]],
        [decode_matrix(mat) for mat in data["Y"]],
        [decode_matrix(mat) for mat in data["V"]],
        [decode_matrix(mat) for mat in data["W"]],
    )
    return point, params


def coords_to_dict(coords: LocalCoordinates) -> dict:
    return {
        "x": [encode_complex(v) for v in coords.x],
        "a": encode_matrix(coords.a),
        "c": encode_matrix(coords.c),
    }


def coords_from_dict(data: dict) -> LocalCoordinates:
    return LocalCoordinates.make(
        [decode_complex(v) for v in data["x"]],
        decode_matrix(data["a"]),
        decode_matrix(data["c"]),
    )


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
