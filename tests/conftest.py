"""Test-session setup shared by every test module.

When a @given test fails, hypothesis imports hypothesis.extra._patching
to print an explicit-example patch. That module imports libcst, whose
import emits a DeprecationWarning (mypy_extensions.TypedDict) from a
dependency. pyproject.toml turns every warning into an error, and one
raised inside pytest's report hook stops the whole session. Importing
the module once here, with that warning ignored, leaves the later import
a cache hit, so a failing property test is reported as failed and the
session goes on. The filter applies to this one import only.
"""
import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # a hypothesis without the module, or without libcst
        pass
