"""Every src/spinquiver function lies on a product path, or is named here with its reason.

The product paths are the command line (the commands of the CI console-script
step, plus report, gen --q, rank --coords and a sampler that runs out of
draws), the acceptance criteria, and one smoke pass of each benchmark
workload.  They run in this process under sys.setprofile, which records every
Python function entered.  The functions of src/spinquiver come from its
syntax trees, keyed by (file, first line, name) as their code objects are.
"""

import ast
import contextlib
import importlib
import io
import shlex
import sys
import time
from pathlib import Path

import numpy as np

import spinquiver
from spinquiver import ModelSpec, derive_params, random_coordinates
from spinquiver import io as sqio
from spinquiver.cli import main

import test_acceptance

SRC = Path(spinquiver.__file__).resolve().parent
BENCH = SRC.parent.parent / "bench"

SYMBOLIC = "symbolic layer: the exact Jacobi and moment checks of ROADMAP items 11 and 14"

# functions no product path enters, each with the reason it stays
ALLOWED = {
    "brackets.loday_word_terms": SYMBOLIC,
    "brackets.trace_bracket_symbolic": SYMBOLIC,
    "brackets.phi_localized_terms":
        "the localized moment words of ROADMAP item 14's probe A",
    "families._phi_inv_word":
        "family 1 and 2 words of family_word_sum, read by ROADMAP item 14's probe B",
    "families._xz_eta_words":
        "family 2 words of family_word_sum, read by ROADMAP item 14's probe B",
    "families.qu_generator":
        "the tr(W V U^(l m)) values of ROADMAP item 15's degenerate-integrability count",
    "params.RegularityResult.__bool__":
        "without it every RegularityResult would be truthy",
    "words.WordSum.canonicalized": SYMBOLIC,
    "words.simplify_word": SYMBOLIC,
    "words.canonical_rotation": SYMBOLIC,
    "words._cancels": SYMBOLIC,
    "engine.Gradient.__init__": "the public constructor, which copies its blocks",
    "engine.Gradient.__iter__": "the Mapping protocol of Gradient",
    "engine.Gradient.__len__": "the Mapping protocol of Gradient",
    "words.WordSum.__add__": "the sum of WordSums, which the symbolic layer builds on",
    "words.WordSum.__len__": "the number of terms of a WordSum",
    "words.WordSum.__repr__": "a readable WordSum in test and debugger output",
}


def _functions() -> dict:
    """{(file, first line, name): qualified name} for every def in src/spinquiver."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                qualname = prefix + child.name
                out[path, line, child.name] = qualname
                visit(child, path, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), str(path), path.stem + ".")
    return out


def _ci_files():
    """The input files the CI step writes with python -c before its commands read them."""
    X = np.array([[1.3, 0.4], [0.2, 2.1]], complex)
    e = sqio.encode_matrix
    z0 = {"spec": {"m": 1, "d": 1, "n": 2}, "q": [[0.7, 0.2]], "X": [e(X)],
          "Y": [e(-np.linalg.inv(X))], "V": [e([[0.3, 0.5]])], "W": [e([[0.2], [0.1]])]}
    sqio.write_json("z0.json", z0)
    sqio.write_json("nn.json", dict(z0, spec={"m": 1, "d": 1}))
    coords = sqio.coords_to_dict(random_coordinates(
        ModelSpec(2, 2, 4), derive_params([1.2 + 0.3j, 0.8 - 0.1j], 4), 1))
    sqio.write_json("c4.json", coords)
    sqio.write_json("av.json", dict(coords, a=[row[0] for row in coords["a"]]))


COMMANDS = [
    "gen --spec 2,2,2 --out p.json", "verify p.json",
    'gen --spec 2,2,2 --q "1.3,0.2;0.7,-0.4" --out pq.json', "verify pq.json",
    "flow --spec 2,2,2 --out f",
    "commute --spec 2,2,3 --seed 3",
    "commute --spec 3,3,6 --seed 1 --family 1",
    "commute --spec 3,3,6 --seed 1 --family 2",
    "commute --spec 3,3,6 --seed 1 --family 4",
    "rank --spec 2,2,3 --family G", "rank --spec 2,2,3 --family H",
    "gen --spec 4,3,6 --out q.json", "verify q.json",
    "bracket x0.x1.x2.x3 w1.v3.z3.x3 --point q.json",
    "flow --spec 3,3,6 --seed 2 --ham trY --out g",
    "flow --spec 3,3,6 --seed 2 --ham trZ --out z",
    "flow --spec 2,2,2 --steps 0 --out s", "flow --spec 2,2,16 --steps 0 --out s",
    "report --points 0 --out r.json",
    "verify z0.json",
    "flow --spec 2,2,3 --seed 2 --ham trT --k 1 --eta 0.3-0.2j --out h",
    "flow --spec 3,3,6 --seed 2 --ham trT --out t",
    "flow --spec 3,3,6 --seed 2 --ham trZ --eta 0.3-0.2j --out a",
    "flow --spec 3,3,6 --seed 2 --ham trY --eta 0.3-0.2j --time 0.2 --out b",
    "flow --spec 3,3,6 --seed 2 --ham trT --k 3 --out c",
    "flow --spec 3,3,6 --seed 2 --ham trY --eta 0.3-0.2j --out s",
    "reduce --word Q",
    "rank --coords c4.json", "rank --spec 2,2,4 --coords c4.json",
    "rank --spec 2,2,4 --coords av.json",
    "verify nn.json",
    'reduce --spec 4,3,6 --seed 1 --word "X^4 S Z^4 S"',
    "dual --spec 3,2,4 --seed 2 --out d",
    # beyond the CI step
    "report --points 2 --out r.json",
    "gen --spec 3,1,6 --seed 6",
]


def _command_line():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        _ci_files()
        for command in COMMANDS:
            main(shlex.split(command))


def _acceptance():
    with contextlib.redirect_stdout(io.StringIO()):
        for name in dir(test_acceptance):
            if name.startswith("test_criterion_"):
                getattr(test_acceptance, name)()


def _benchmark(workdir: str):
    """One smoke pass of each workload, as bench/run.py makes it, and its parity check."""
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        harness = importlib.import_module("harness")
        workloads = importlib.import_module("workloads")
    finally:
        sys.dont_write_bytecode = dont_write
    for name, workload_type in workloads.WORKLOADS.items():
        workload, layers = workload_type(3, True), harness.Layers()
        workload.setup(layers)
        workload.warmup(layers)
        results = []
        for idx in range(len(workload.inputs)):
            results += harness.run_point(idx, workload.checks(idx, layers), layers,
                                         time.perf_counter())[0]
        assert not workload.parity(results, workdir), name


def test_every_src_function_is_on_a_product_path_or_allowed(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.syspath_prepend(str(BENCH))
    functions = _functions()
    entered = set()
    # an lru_cache filled by an earlier test would answer without entering its function
    for name, module in list(sys.modules.items()):
        if name.startswith("spinquiver"):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            entered.add((code.co_filename, code.co_firstlineno, code.co_name))

    sys.setprofile(profile)
    try:
        _command_line()
        _acceptance()
        _benchmark(str(tmp_path))
    finally:
        sys.setprofile(None)
    never = {functions[key] for key in functions.keys() - entered}
    assert never == set(ALLOWED)
    assert all(reason for reason in ALLOWED.values())
