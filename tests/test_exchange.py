"""The engine has one keyed exchange, ``functions.agg.hash_partitioned_groups``:
no other module builds a ``_part`` column, groups on it or sizes a
partition count, and no public function takes one.  Every task and
partition count reads the CPU count through one owner,
``util.cluster_cpus``."""

import importlib
import inspect
import pathlib
import pkgutil
import re

import rios_ray

ROOT = pathlib.Path(rios_ray.__file__).parent
EXCHANGE = ROOT / "functions" / "agg.py"
PART = re.compile(r"""["']_part["']|\.repartition\(""")


def _lines_outside(owner: pathlib.Path, pattern: re.Pattern) -> list[str]:
    """The lines of ``rios_ray/`` outside ``owner`` that match ``pattern``."""
    return [
        f"{path.relative_to(ROOT)}:{i}: {line.strip()}"
        for path in sorted(ROOT.rglob("*.py")) if path != owner
        for i, line in enumerate(path.read_text().splitlines(), 1)
        if pattern.search(line)
    ]


def test_only_agg_builds_or_groups_on_part():
    assert _lines_outside(EXCHANGE, PART) == []
    assert EXCHANGE.read_text().count('.groupby("_part")') == 1


def test_cluster_cpus_is_the_only_reader_of_cluster_resources():
    owner = ROOT / "util.py"
    assert _lines_outside(owner, re.compile(r"(cluster|available)_resources\(")) == []
    assert "ray.cluster_resources()" in owner.read_text()


def test_no_public_function_takes_a_partition_count():
    found = []
    for info in pkgutil.walk_packages(rios_ray.__path__, "rios_ray."):
        mod = importlib.import_module(info.name)
        for name, fn in inspect.getmembers(mod, inspect.isfunction):
            if (fn.__module__ == mod.__name__ and not name.startswith("_")
                    and "num_partitions" in inspect.signature(fn).parameters):
                found.append(f"{info.name}.{name}")
    assert found == []
