"""One hypothesis profile for the whole suite: no deadline, since an example
ranges from microseconds to a flow run of seconds, and no example database,
so a test run leaves no ``.hypothesis`` directory behind.  Each test keeps
only its ``max_examples``."""

from hypothesis import settings

settings.register_profile("koszulflow", deadline=None, database=None)
settings.load_profile("koszulflow")
