import json
from fractions import Fraction as F

import pytest

from orbidegen.contact import ContactOrder, MonodromyTable
from orbidegen.errors import ValidationError
from orbidegen.io import _contact, _integer, _rational, load_document


class TestContactParsing:
    def test_parse_roundtrip(self):
        assert _contact("3/2", "c") == ContactOrder(3, 2)
        assert _contact("4", "c") == ContactOrder(4, 1)
        assert str(ContactOrder(3, 2)) == "3/2"

    @pytest.mark.parametrize("text,message", [
        ("1/2/3", "edges[0].contact: cannot parse contact order '1/2/3'"),
        ("0/2", "edges[0].contact: contact order needs k>0 and r>0, got k=0, r=2"),
        ("x/2", "edges[0].contact: cannot parse contact order 'x/2'"),
        ("1_0/1", "edges[0].contact: cannot parse contact order '1_0/1'"),
        ("\u0661/2", "edges[0].contact: cannot parse contact order '\u0661/2'"),
    ], ids=["three-parts", "zero-numerator", "not-an-integer", "underscore", "non-ascii-digit"])
    def test_bad_text_names_the_field(self, text, message):
        with pytest.raises(ValidationError) as info:
            _contact(text, "edges[0].contact")
        assert str(info.value).startswith(message)


@pytest.mark.parametrize("text,value", [
    (" 3/2 ", F(3, 2)), ("-3/2", F(-3, 2)), ("+4", F(4)), ("6/4", F(3, 2)), ("007", F(7)),
])
def test_rational_forms_read(text, value):
    assert _rational(text, "x") == value


@pytest.mark.parametrize("text", ["0.5", "1e3", "1_000", "\u0661/\u0662", "3/-2", "1/2/3", ""])
def test_rational_other_forms_refused(text):
    with pytest.raises(ValidationError, match=r"^x: cannot parse rational "):
        _rational(text, "x")


def test_integer_forms():
    assert [_integer(t, "x") for t in (" 12 ", "-3", "+0")] == [12, -3, 0]
    for text in ("1_0", "\u0662", "1.0", "1/1", ""):
        with pytest.raises(ValidationError, match=r"^x: expected an integer"):
            _integer(text, "x")


def test_trivial_class_table_loads():
    doc = load_document(json.dumps({"schema": "orbi-degen/1",
                                    "classes": [{"name": "t", "trivial": True}]}))
    assert doc.classes["t"] == MonodromyTable.trivial()
