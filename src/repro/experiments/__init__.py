"""One driver per paper table or figure — the §3.1 microbenchmarks,
the §3.2 storage-service case study, the §3.3 RUBiS/DWCS comparison,
failure-injection sweeps, and the observability overhead/trace
drivers — each returning plain result records so tests and the CLI
share one code path (see DESIGN.md's experiment index).

Callers import the driver submodule that defines what they use: the
metrics registry imports :mod:`repro.experiments.runner` into every
scenario process, which must not load every driver with it.
"""
