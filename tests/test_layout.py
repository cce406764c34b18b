"""Memory-layout names (the device models' CONTIGUOUS/INTERLEAVED)."""

from repro.core.layout import Layout


def test_layout_enum_values():
    assert Layout.CONTIGUOUS.value == "contiguous"
    assert Layout.INTERLEAVED.value == "interleaved"
