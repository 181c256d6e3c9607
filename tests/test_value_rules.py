"""Every count a parameter or spec dataclass takes is checked by the count rule,
and every real number by the number or rate rule."""

import dataclasses

import pytest

from tangled_string import LayoutParams, RegimeSpec, SyntheticSpec, TangleParams

REGIME = RegimeSpec(("a", "b"), 3)
VALID = [TangleParams(3), LayoutParams(), REGIME, SyntheticSpec(regimes=(REGIME,))]


@pytest.mark.parametrize("valid", VALID, ids=lambda valid: type(valid).__name__)
def test_every_int_field_refuses_floats_and_bools(valid):
    # the modules use postponed annotations, so a field's type is its source text
    names = [field.name for field in dataclasses.fields(valid) if field.type in ("int", int)]
    assert names
    for name in names:
        for value in (2.5, True):
            with pytest.raises(ValueError, match=f"^{name} must be an int >= "):
                dataclasses.replace(valid, **{name: value})


@pytest.mark.parametrize("valid", VALID[1:], ids=lambda valid: type(valid).__name__)
def test_every_float_field_refuses_strings_and_bools(valid):
    names = [field.name for field in dataclasses.fields(valid) if field.type in ("float", float)]
    assert names
    for name in names:
        for value in ("x", True, 10**400, -(10**400)):  # no float holds 10**400
            with pytest.raises(ValueError, match=f"^{name} must be a "):
                dataclasses.replace(valid, **{name: value})
