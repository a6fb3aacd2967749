#!/usr/bin/env python3
"""Benchmark the compiled coefficient kernel against the pure-Python twin.

Times the scalar field operations and the sparse term-map product directly on
both kernel modules, then times a full reconstruction round trip in a
subprocess per backend (KHOLO_PURE_KERNEL selects the fallback).

Usage: python3 benchmarks/bench_kernels.py [--repeat N]
"""

import argparse
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

from kholo import _gqpure

try:
    from kholo import _gqkernel
except ImportError:
    _gqkernel = None


def make_scalars(module, rng, count):
    out = []
    for _ in range(count):
        out.append(module.GaussianRational(
            Fraction(rng.randint(-99, 99), rng.randint(1, 99)),
            Fraction(rng.randint(-99, 99), rng.randint(1, 99))))
    return out


def make_terms(module, rng, nterms, width):
    terms = {}
    while len(terms) < nterms:
        exps = tuple(rng.randint(0, 5) for _ in range(width))
        terms[exps] = module.GaussianRational(
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)), rng.randint(-9, 9))
    return terms


def bench_scalar_ops(module, seed, repeat):
    # pairwise products/sums/quotients; no accumulation, so the cost measured
    # is dispatch and normalization rather than bigint growth
    rng = random.Random(seed)
    values = make_scalars(module, rng, 400)
    started = time.perf_counter()
    for _ in range(repeat):
        for a, b in zip(values, values[1:]):
            a * b
            a + b
            a / b
            a.conjugate()
    return time.perf_counter() - started


def bench_terms_mul(module, seed, repeat):
    rng = random.Random(seed)
    a = make_terms(module, rng, 60, 4)
    b = make_terms(module, rng, 60, 4)
    started = time.perf_counter()
    for _ in range(repeat):
        module.terms_mul(a, b)
    return time.perf_counter() - started


def bench_end_to_end(pure):
    code = (
        "import random, time\n"
        "from kholo.polynomials import VarSpace, split_real_imag\n"
        "from kholo.cartan import reconstruct_from_real_part\n"
        "from kholo.selftest import random_poly\n"
        "rng = random.Random(12)\n"
        "polys = [random_poly(VarSpace.z(2), rng, max_degree=6,"
        " max_terms=10, zero_constant=True) for _ in range(30)]\n"
        "t0 = time.perf_counter()\n"
        "for f in polys:\n"
        "    assert reconstruct_from_real_part(split_real_imag(f)[0]).reconstructed\n"
        "print(time.perf_counter() - t0)\n"
    )
    env = dict(os.environ)
    if pure:
        env["KHOLO_PURE_KERNEL"] = "1"
    else:
        env.pop("KHOLO_PURE_KERNEL", None)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return float(out.stdout.strip())


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--repeat", type=int, default=200)
    args = parser.parse_args()

    if _gqkernel is None:
        print("compiled kernel not built; showing pure timings only")
        modules = [("python", _gqpure)]
    else:
        modules = [("cython", _gqkernel), ("python", _gqpure)]

    rows = []
    for label, module in modules:
        rows.append((label,
                     bench_scalar_ops(module, 3, args.repeat),
                     bench_terms_mul(module, 5, args.repeat)))

    print(f"{'backend':<10}{'scalar ops':>14}{'terms_mul':>14}")
    for label, scal, tmul in rows:
        print(f"{label:<10}{scal:>13.3f}s{tmul:>13.3f}s")
    if len(rows) == 2:
        print(f"{'speedup':<10}{rows[1][1] / rows[0][1]:>13.2f}x"
              f"{rows[1][2] / rows[0][2]:>13.2f}x")

    print("\nend-to-end reconstruction (30 polynomials, n=2, degree<=6):")
    if _gqkernel is not None:
        fast = bench_end_to_end(pure=False)
        print(f"  cython backend: {fast:.3f}s")
    slow = bench_end_to_end(pure=True)
    print(f"  python backend: {slow:.3f}s")
    if _gqkernel is not None:
        print(f"  speedup: {slow / fast:.2f}x")


if __name__ == "__main__":
    main()
