"""Differential oracles: the retired per-object implementations of
production code paths, kept so the batteries can check the production
code against them bit for bit."""
