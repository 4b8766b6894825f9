import sys

import pytest

import toruslie.elliptic


@pytest.fixture
def count_wp_calls():
    """count(m) -> list: wp_both replaced, through the monkeypatch m, in every
    toruslie module that binds it, so that each call appends its points to
    the list."""

    def count(m):
        calls = []
        original = toruslie.elliptic.wp_both

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if name.startswith("toruslie") and vars(module).get("wp_both") is original:
                m.setattr(module, "wp_both", counting)
        return calls

    return count
