"""Keep the benchmark's self-tests out of tier-1.

``pytest benchmarks/perf`` (or naming a file in it) collects them; a bare
``pytest`` from the repository root, which is what tier-1 runs, does not.
"""

from pathlib import Path

HERE = Path(__file__).resolve().parent


def pytest_ignore_collect(collection_path, config):
    base = config.invocation_params.dir
    for arg in config.invocation_params.args:
        target = (base / str(arg).split("::")[0]).resolve()
        if target == HERE or HERE in target.parents:
            return None
    return True
