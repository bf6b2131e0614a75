"""Suite-wide setup for tests/ and perfbench/.

pyproject.toml turns every warning into an error.  When a property test
fails, Hypothesis's report hook imports hypothesis.extra._patching, which
pulls in libcst, and libcst's use of mypy_extensions.TypedDict raises a
DeprecationWarning at import.  Under the error filter that warning escapes
the hook as an INTERNALERROR and ends the session, so no later test is
reported.  Importing the module once here, with the warning silenced, lets
the hook find it already loaded; the error filter is left as it is.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # no libcst: the hook has nothing to import either
        pass
