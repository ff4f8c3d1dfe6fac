"""Fixture: bare assert inside a protocol package (``core/``)."""


def commit(height):
    assert height >= 0, "heights are non-negative"
    return height


def checked_commit(height):
    assert height >= 0, "explicitly exempted"  # static: allow
    return height
