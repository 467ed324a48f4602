import json

import pytest

from orbidegen.contact import ContactOrder, MonodromyTable
from orbidegen.errors import ValidationError
from orbidegen.io import _contact, load_document


class TestContactParsing:
    def test_parse_roundtrip(self):
        assert _contact("3/2", "c") == ContactOrder(3, 2)
        assert _contact("4", "c") == ContactOrder(4, 1)
        assert str(ContactOrder(3, 2)) == "3/2"

    @pytest.mark.parametrize("text,message", [
        ("1/2/3", "edges[0].contact: cannot parse contact order '1/2/3'"),
        ("0/2", "edges[0].contact: contact order needs k>0 and r>0, got k=0, r=2"),
        ("x/2", "edges[0].contact: invalid literal for int()"),
    ], ids=["three-parts", "zero-numerator", "not-an-integer"])
    def test_bad_text_names_the_field(self, text, message):
        with pytest.raises(ValidationError) as info:
            _contact(text, "edges[0].contact")
        assert str(info.value).startswith(message)


def test_trivial_class_table_loads():
    doc = load_document(json.dumps({"schema": "orbi-degen/1",
                                    "classes": [{"name": "t", "trivial": True}]}))
    assert doc.classes["t"] == MonodromyTable.trivial()
