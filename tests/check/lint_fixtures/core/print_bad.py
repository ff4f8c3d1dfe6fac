"""Fixture: ``print()`` inside a protocol package (``no-print`` flags it)."""


def announce(height):
    print("committed block", height)
    return height


def announce_allowed(height):
    print("debugging a flake")  # static: allow
    return height
