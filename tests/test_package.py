import types

import powerdom


def test_one_public_name_per_callable():
    names = {}
    for name in dir(powerdom):
        obj = getattr(powerdom, name)
        if name.startswith("_") or isinstance(obj, types.ModuleType):
            continue
        if callable(obj):
            names.setdefault(id(obj), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []
