"""One hypothesis profile for the whole suite: no deadline, since an example
ranges from microseconds to a flow run of seconds, and no example database,
so a test run leaves no ``.hypothesis`` directory behind; without the
database a failing example is replayed from the ``@reproduce_failure``
blob that ``print_blob`` prints.  Each test keeps only its ``max_examples``."""

from hypothesis import settings

settings.register_profile("koszulflow", deadline=None, database=None, print_blob=True)
settings.load_profile("koszulflow")
