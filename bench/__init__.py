"""Scenario benchmark for the SysProf reproduction; see ``bench/README.md``."""
