from .agg import grouped_count  # noqa: F401
