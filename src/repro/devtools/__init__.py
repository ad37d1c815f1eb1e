"""Developer tooling: the stdlib-only invariant linter is :mod:`repro.devtools.lint`."""
