"""The benchmark's seeded inputs (bench/inputs.py) and the V3 pools built from
them, for tests that check the library on the benchmark's own markets."""

import importlib.util
from pathlib import Path

import numpy as np

from parmm import MarketState, NormFee, UniswapV3Market, generator_from_descriptor, initialize


def bench_inputs():
    path = Path(__file__).resolve().parents[1] / "bench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("bench_inputs", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def n2_market(seed: int) -> MarketState:
    """The bundle-n2 workload's opening market: k = 16 LPs of mixed families."""
    spec = bench_inputs().n2_market(seed)
    gens = [generator_from_descriptor(d, 2) for d in spec["lps"]]
    p = spec["price"]
    st = initialize(gens[0], price=[p, 1.0 - p], fee=NormFee(spec["fee_beta"], "l1"), strict=False)
    for G in gens[1:]:
        st.modify_liquidity(st.register_lp(), G)
    return st


def v3_pool(seed: int) -> UniswapV3Market:
    """The v3-pool workload's opening pool: B = 400 buckets tiled by 8 LPs."""
    inputs = bench_inputs()
    spec = inputs.v3_market(seed)
    edges = spec["edges"]
    pool = UniswapV3Market(list(zip(edges[:-1], edges[1:])), spec["price"], beta=spec["fee_beta"])
    for _ in range(inputs.V3_LPS - 1):
        pool.register_lp()
    for lp, j, weight in spec["mints"]:
        pool.mint(lp, j, weight)
    return pool


def tiled_pool(buckets: int, lps: int = 4, seed: int = 0) -> UniswapV3Market:
    """A pool whose LPs tile `buckets` equal buckets on [0.02, 0.98] in
    contiguous ranges, as the v3-pool workload's do, with random weights;
    LP 0 also keeps its opening weight."""
    rng = np.random.default_rng(seed)
    edges = np.linspace(0.02, 0.98, buckets + 1).tolist()
    pool = UniswapV3Market(list(zip(edges[:-1], edges[1:])), 0.5)
    for _ in range(lps - 1):
        pool.register_lp()
    owner = np.arange(buckets) * lps // buckets
    for j in range(buckets):
        pool.mint(int(owner[j]), j, float(rng.uniform(0.5, 2.0)))
    return pool
