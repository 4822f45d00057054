"""Settings shared by every test module.

Property tests run under one hypothesis profile: examples are drawn from a
fixed seed and never replayed from a database, so every run of the suite
draws the same examples, and no example has a deadline (timings vary with
the host). Each test still sets its own ``max_examples``.
"""

try:
    import hypothesis
except ImportError:  # the property tests skip themselves without it
    pass
else:
    hypothesis.settings.register_profile(
        "retromech", derandomize=True, database=None, deadline=None)
    hypothesis.settings.load_profile("retromech")
