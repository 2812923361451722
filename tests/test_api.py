import casimir_trace


def test_every_exported_name_resolves_once():
    # getattr raises for a name the package no longer has; the command-line
    # names load lazily through the package's __getattr__
    names = casimir_trace.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(casimir_trace, name)
