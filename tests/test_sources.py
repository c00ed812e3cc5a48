import warnings
from pathlib import Path

import rankcrank


def test_every_module_compiles_without_warnings():
    # a compile-time warning, such as `cls is "P2"` (an identity test
    # against a literal), fails here instead of passing silently
    paths = sorted(Path(rankcrank.__file__).parent.glob("*.py"))
    assert paths
    for path in paths:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            compile(path.read_text(), str(path), "exec")
