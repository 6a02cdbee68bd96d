from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from productldpc import build_hp, build_mscmpc, build_spc, gf2, simulate


@pytest.fixture(scope="session")
def comp5():
    return build_mscmpc(5, [3, 4])


@pytest.fixture(scope="session")
def spc3():
    return build_spc(3)


@pytest.fixture(scope="session")
def pc144(comp5):
    return build_hp(comp5, comp5)


@pytest.fixture()
def rng():
    return np.random.default_rng(12345)


@pytest.fixture()
def lanes(monkeypatch):
    """set_cpus(c) makes gf2 and simulate see c usable CPUs and returns
    the list to which every thread pool they start appends its size: a
    sweep's pool holds one thread per lane, and gf2._in_lanes's one less
    than the lanes, since its lane 0 runs on the calling thread."""
    pools = []

    class Pool(ThreadPoolExecutor):
        def __init__(self, workers):
            pools.append(workers)
            super().__init__(workers)

    for module in (gf2, simulate):
        monkeypatch.setattr(module, "ThreadPoolExecutor", Pool)

    def set_cpus(cpus):
        for module in (gf2, simulate):
            monkeypatch.setattr(module, "_cpus", lambda: cpus)
        pools.clear()
        return pools

    return set_cpus
