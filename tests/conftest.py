import importlib
import os
import resource
import subprocess
import sys
import warnings

import numpy as np
import pytest

import gqm
from gqm.examples import (
    build_qubit,
    corpus_groupoids,
    cyclic_group_groupoid,
    double_slit_groupoid,
)
from gqm.groupoid import pair_groupoid

pytest_plugins = ["pytester"]

# A failing @given test makes Hypothesis's plugin import its patch writer,
# which imports libcst, whose use of mypy_extensions.TypedDict warns; the
# filterwarnings setting turns that warning into an error inside pytest's
# report hook, which then names no test.  Import it once here, with that
# one warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings("ignore", "mypy_extensions.TypedDict is "
                            "deprecated", DeprecationWarning)
    try:
        importlib.import_module("hypothesis.extra._patching")
    except ImportError:  # no libcst: Hypothesis writes no patch
        pass


@pytest.fixture
def qubit():
    return build_qubit()


@pytest.fixture
def pair3():
    return pair_groupoid(["a", "b", "c"])


@pytest.fixture
def pair4():
    return pair_groupoid(["a", "b", "c", "d"])


@pytest.fixture
def z3():
    return cyclic_group_groupoid(3)


@pytest.fixture
def double_slit():
    return double_slit_groupoid()


@pytest.fixture
def corpus():
    return corpus_groupoids()


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def random_element(g, rng):
    from gqm.algebra import AlgebraElement

    re = rng.uniform(-1, 1, size=g.order)
    im = rng.uniform(-1, 1, size=g.order)
    return AlgebraElement(g, re + 1j * im)


def run_capped(argv, mib):
    """Run ``python -m gqm.cli`` with ``argv`` in a child process whose
    address space is capped at ``mib`` MiB; returns (exit code, stdout,
    stderr)."""
    limit = mib * 2**20

    def cap():  # runs in the child only, between fork and exec
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.path.dirname(os.path.dirname(gqm.__file__)))
    proc = subprocess.run([sys.executable, "-m", "gqm.cli", *argv], env=env,
                          capture_output=True, text=True, preexec_fn=cap,
                          timeout=300)
    return proc.returncode, proc.stdout, proc.stderr
