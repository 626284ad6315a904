"""The value types' contract, and what `import emptytet.cli` loads."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from emptytet.geometry import DegenerateTetrahedronError, Tetrahedron, standard_tetrahedron, volume6
from emptytet.intlin import IDENTITY, AffineUnimodularMap
from emptytet.normalize import NormalizationResult, canonicalize
from emptytet.white import CanonicalForm

SRC = Path(__file__).resolve().parents[1] / "src"

IMPORT_AUDIT = """
import sys
import emptytet.cli
for name in ("dataclasses", "inspect", "fractions", "decimal", "json", "random"):
    assert name not in sys.modules, name
assert "emptytet.verify" in sys.modules
from emptytet.white import CanonicalForm, satisfies_fraction_system
assert satisfies_fraction_system(CanonicalForm(1, 2, 5))
assert not satisfies_fraction_system(CanonicalForm(2, 2, 7))
for name in ("fractions", "decimal"):
    assert name not in sys.modules, name
print("ok")
"""


def test_cli_import_skips_dataclasses_and_fractions():
    # -S keeps site-packages hooks, which may import inspect themselves, out
    # of the count; emptytet.verify must load, since the benchmark reads it.
    proc = subprocess.run(
        [sys.executable, "-S", "-c", IMPORT_AUDIT],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


def test_reprs():
    t115 = standard_tetrahedron(1, 1, 5)
    unit_map = (
        "AffineUnimodularMap(matrix=((1, 0, 0), (0, 1, 0), (0, 0, 1)), translation=(0, 0, 0))"
    )
    assert repr(CanonicalForm(1, 2, 5)) == "CanonicalForm(a=1, b=2, c=5)"
    assert repr(t115) == "Tetrahedron(v0=(0, 0, 0), v1=(1, 0, 0), v2=(0, 1, 0), v3=(1, 1, 5))"
    assert repr(AffineUnimodularMap(IDENTITY)) == unit_map
    assert repr(canonicalize(t115)) == (
        f"NormalizationResult(map={unit_map}, form=CanonicalForm(a=1, b=1, c=5))"
    )


def test_fields_are_read_only_and_keywords_construct():
    form = CanonicalForm(a=1, b=2, c=5)
    t = Tetrahedron(v0=(0, 0, 0), v1=(1, 0, 0), v2=(0, 1, 0), v3=(1, 2, 5))
    lmap = AffineUnimodularMap(matrix=IDENTITY, translation=(1, 2, 3))
    result = NormalizationResult(map=lmap, form=form)
    for value, field in ((form, "a"), (t, "v3"), (lmap, "translation"), (result, "form")):
        with pytest.raises(AttributeError):
            setattr(value, field, None)
    assert form == CanonicalForm(1, 2, 5) == (1, 2, 5)
    assert form.d == 3
    assert lmap((1, 1, 1)) == (2, 3, 4)
    assert AffineUnimodularMap(IDENTITY).translation == (0, 0, 0)
    a, b, c = form
    assert (a, b, c) == (1, 2, 5)
    assert t.vertices() == ((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 2, 5))


def test_forms_are_dict_keys():
    base = {CanonicalForm(1, 2, 5): "first"}
    base[CanonicalForm(1, 2, 5)] = "again"
    assert base == {CanonicalForm(1, 2, 5): "again"}
    assert canonicalize(standard_tetrahedron(1, 2, 5)).form in base


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: CanonicalForm(1.0, 2, 5), TypeError, "a, b, c must be ints, got 1.0, 2, 5"),
        (lambda: CanonicalForm(1, 2, 0), ValueError, "c must be >= 1, got 0"),
        (lambda: CanonicalForm(5, 2, 5), ValueError, "need 0 <= a, b < c, got a=5, b=2, c=5"),
        (
            lambda: Tetrahedron((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1)),
            TypeError,
            "vertex must be a tuple of 3 ints, got (1, 1)",
        ),
        (
            lambda: Tetrahedron((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 0, 1)),
            DegenerateTetrahedronError,
            "degenerate tetrahedron (coplanar vertices): "
            "((0, 0, 0), (1, 0, 0), (2, 0, 0), (0, 0, 1))",
        ),
        (
            lambda: AffineUnimodularMap(((2, 0, 0), (0, 1, 0), (0, 0, 1))),
            ValueError,
            "matrix is not unimodular (det = 2)",
        ),
    ],
)
def test_validation_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "value, fields, error, message",
    [
        (
            standard_tetrahedron(1, 1, 5),
            {"v3": (2, 0, 0)},
            DegenerateTetrahedronError,
            "degenerate tetrahedron (coplanar vertices): ((0, 0, 0), (1, 0, 0), (0, 1, 0), (2, 0, 0))",
        ),
        (CanonicalForm(1, 1, 5), {"c": 0}, ValueError, "c must be >= 1, got 0"),
        (
            AffineUnimodularMap(IDENTITY),
            {"matrix": ((2, 0, 0), (0, 1, 0), (0, 0, 1))},
            ValueError,
            "matrix is not unimodular (det = 2)",
        ),
    ],
)
def test_replace_validates_like_the_constructor(value, fields, error, message):
    with pytest.raises(error) as info:
        value._replace(**fields)
    assert str(info.value) == message


def test_replace_builds_a_whole_tetrahedron():
    t = standard_tetrahedron(1, 1, 5)._replace(v3=(2, 3, 7))
    assert t == standard_tetrahedron(2, 3, 7)
    assert volume6(t) == 7
    assert canonicalize(t) == canonicalize(standard_tetrahedron(2, 3, 7))


def test_copies_keep_the_face_forms():
    t = Tetrahedron((3, -4, 9), (4, -4, 9), (3, -3, 9), (8, -1, 7))
    pickled = [pickle.loads(pickle.dumps(t, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for twin in (copy.copy(t), copy.deepcopy(t), *pickled):
        assert type(twin) is Tetrahedron and twin == t
        assert twin._faces == t._faces
        assert volume6(twin) == volume6(t) and canonicalize(twin) == canonicalize(t)


def test_checked_classes_define_their_own_init():
    # The benchmark's tracer wraps vars(cls)["__init__"] on these two.
    assert "__init__" in vars(Tetrahedron)
    assert "__init__" in vars(AffineUnimodularMap)
