"""Seeded, order-independent noise sampling.

Every sample is a pure function of (master_seed, node, step, trial, slot):
the tuple is hashed with a splitmix64-style finalizer into a uniform draw,
so parallel Monte Carlo trials reproduce bit-exactly regardless of
evaluation order or thread count. Sampling is vectorized over any of the
index arguments.

One routine forms every draw. It fills the broadcast output in blocks of
about NOISE_BLOCK values, in place, with three scratch buffers per thread,
and shares the blocks of a larger call out over a pool of up to
min(4, CPUs) threads (numpy releases the GIL inside its loops). A value
depends only on its coordinates, and every value goes through the same
operations in the same order, so the bits depend on neither the block size,
the thread count nor when or on which thread a call runs: `engine.simulate`
makes the calls of a chunked run on `helper()`, beside other work, and that
thread hands its blocks to the pool like any caller.

Slot assignment per (node, step, trial):
  0, 1  - the protocol noise draw (two uniforms feed Box-Muller),
  2     - the Poisson-clock inter-tick gap of the asynchronous engine.
"""
from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .model import Distribution

_MASK64 = (1 << 64) - 1
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

SLOT_BETA = 0
SLOT_BETA_AUX = 1
SLOT_CLOCK = 2

_SQRT3 = math.sqrt(3.0)

# Values per block: a block's three scratch buffers (1.5 MB) stay in cache.
NOISE_BLOCK = 1 << 16

_POOL = None  # the ThreadPoolExecutor of _pool()
_HELPER = None  # the one-thread executor of helper()
_POOL_LOCK = threading.Lock()


def _pool():
    """The process's block workers, created on first use."""
    global _POOL
    with _POOL_LOCK:
        if _POOL is None:
            # Imported here: a run whose calls fit in one block never loads it.
            from concurrent.futures import ThreadPoolExecutor

            cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
            _POOL = ThreadPoolExecutor(min(4, cpus or 1), thread_name_prefix="ringsum-noise")
        return _POOL


def helper():
    """One thread, created on first use, that draws while its caller does
    other work. It is no block worker, so the blocks it hands to the pool
    never wait behind it. It lives as long as the process: the allocator
    gives each thread an arena of its own, which keeps the buffers a thread
    frees for that thread's next draw, and a fresh thread per draw could be
    handed a fresh arena."""
    global _HELPER
    with _POOL_LOCK:
        if _HELPER is None:
            from concurrent.futures import ThreadPoolExecutor

            _HELPER = ThreadPoolExecutor(1, thread_name_prefix="ringsum-draw")
        return _HELPER


def _forget_pool() -> None:
    # A forked child inherits the executors but not their threads.
    global _POOL, _HELPER
    _POOL = _HELPER = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_tasks(task, items: list, scratch) -> list:
    """[task(item, buf) for item in items], on the pool if there are several."""
    if len(items) == 1:
        return [task(items[0], scratch())]
    # `buf` is the running thread's own `scratch()`, made on its first task.
    pool, held = _pool(), threading.local()

    def run(item):
        if not hasattr(held, "buf"):
            held.buf = scratch()
        return task(item, held.buf)

    # Each task runs in a copy of the caller's context, so the caller's numpy
    # error state holds in the workers too.
    futures = [pool.submit(contextvars.copy_context().run, run, item) for item in items]
    for future in futures:  # every task finishes before the first error is raised
        future.exception()
    return [future.result() for future in futures]


def workers() -> int:
    """The number of threads `run_tasks` runs tasks on."""
    return _pool()._max_workers


def _fmix64(z: np.ndarray, tmp: np.ndarray) -> None:
    """The splitmix64 finalizer, in place on `z`, with `tmp` as scratch."""
    for shift, mult in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=tmp)
        np.bitwise_xor(z, tmp, out=z)
        np.multiply(z, mult, out=z)
    np.right_shift(z, np.uint64(31), out=tmp)
    np.bitwise_xor(z, tmp, out=z)


def _key(part: np.ndarray) -> np.ndarray:
    return (part + _GOLDEN) * _MIX1


def _blocks(shape: tuple[int, ...], size: int):
    """Index tuples cutting a C-ordered array of `shape` into contiguous
    blocks of at most `size` values: runs of rows along the leading axis,
    or, where one row holds more than `size` values, blocks of each row."""
    row = math.prod(shape[1:])
    if row > size:
        for i in range(shape[0]):
            for sub in _blocks(shape[1:], size):
                yield (slice(i, i + 1), *sub)
    else:
        step = size // row
        for lo in range(0, shape[0], step):
            yield (slice(lo, lo + step),)


def _rows(a: np.ndarray, idx: tuple) -> np.ndarray:
    """The part of operand `a` that broadcasts onto block `idx` of the output."""
    return a[tuple(s if n > 1 else slice(None) for s, n in zip(idx, a.shape))]


def _fill(out, idx, buf, prefix, trial, slot_keys, kind, param) -> None:
    """Draw block `idx` of `out` with the scratch buffers `buf`.

    The operations and their order are those of the draw written out:
    z = fmix(fmix(prefix ^ key(trial)) ^ key(slot)), u = ((z >> 11) + 0.5)
    * 2**-53, then the transform of `kind`, whose `param` the caller has
    prepared (products are commutative in IEEE arithmetic, so the operand
    order inside one product does not matter).
    """
    o = out[idx]
    a, b, f = (x[: o.size].reshape(o.shape) for x in buf)
    tmp = f.view(np.uint64)
    p = None if param is None else _rows(param, idx)

    def uniform(slot_key, u):
        np.bitwise_xor(a, _rows(slot_key, idx), out=b)
        _fmix64(b, tmp)
        np.right_shift(b, np.uint64(11), out=b)
        np.add(b, 0.5, out=u)
        np.multiply(u, 2.0**-53, out=u)

    with np.errstate(over="ignore"):
        np.bitwise_xor(_rows(prefix, idx), _key(_rows(trial, idx)), out=a)
        _fmix64(a, b)
    if kind is Distribution.GAUSSIAN:  # scale * sqrt(-2 log u1) * cos(2 pi u2)
        uniform(slot_keys[1], o)
        np.multiply(o, 2.0 * np.pi, out=o)
        np.cos(o, out=o)
        uniform(slot_keys[0], f)
        np.log(f, out=f)
        np.multiply(f, -2.0, out=f)
        np.sqrt(f, out=f)
        np.multiply(f, o, out=o)
        np.multiply(o, p, out=o)
        return
    uniform(slot_keys[0], o)
    if kind is Distribution.LAPLACE:  # (-scale * sign(t)) * log1p(-2|t|), t = u - 1/2
        np.subtract(o, 0.5, out=o)
        np.abs(o, out=f)
        np.multiply(f, -2.0, out=f)
        np.log1p(f, out=f)
        np.sign(o, out=o)
        np.multiply(o, p, out=o)
        np.multiply(o, f, out=o)
    elif kind is Distribution.UNIFORM_SYMMETRIC:  # (scale * sqrt 3) * (2u - 1)
        np.multiply(o, 2.0, out=o)
        np.subtract(o, 1.0, out=o)
        np.multiply(o, p, out=o)
    elif kind == "clock":  # -log(u) / rate
        np.log(o, out=o)
        np.negative(o, out=o)
        np.divide(o, p, out=o)


def _draw(seed: int, node, k, trial, slots, kind, param=None):
    """Draws of `kind` ("uniform", "clock" or a Distribution) broadcast over
    the coordinates and `param`; a float if every input is a scalar. The
    Gaussian takes two slots, the other kinds one."""
    coords = [np.asarray(x, dtype=np.uint64) for x in (node, k, trial, *slots)]
    operands = coords if param is None else [*coords, np.asarray(param)]
    shape = np.broadcast(*operands).shape
    nd = max(1, len(shape))
    node, k, trial, *rest = (x.reshape((1,) * (nd - x.ndim) + x.shape) for x in operands)
    slots, param = rest[: len(slots)], None if param is None else rest[-1]
    out = np.empty(shape or (1,))
    if out.size:
        prefix = np.full(np.broadcast(node, k).shape, seed & _MASK64, np.uint64)
        with np.errstate(over="ignore"):
            np.add(prefix, _GOLDEN, out=prefix)
            tmp = np.empty_like(prefix)
            _fmix64(prefix, tmp)
            for part in (node, k):
                np.bitwise_xor(prefix, _key(part), out=prefix)
                _fmix64(prefix, tmp)
            slot_keys = [_key(slot) for slot in slots]
        size = min(out.size, NOISE_BLOCK)
        # Each worker makes its buffers: its arena keeps them when they are
        # freed, for its next call. Buffers the calling thread made would go
        # back to the system and fault in again on every call.
        run_tasks(lambda idx, buf: _fill(out, idx, buf, prefix, trial, slot_keys, kind, param),
                  list(_blocks(out.shape, NOISE_BLOCK)),
                  lambda: (np.empty(size, np.uint64), np.empty(size, np.uint64), np.empty(size)))
    return float(out[0]) if not shape else out


@dataclass(frozen=True)
class NoiseSource:
    """Counter-based stream of zero-mean noise, keyed by a 64-bit master seed."""

    master_seed: int

    def uniform(self, node, k, trial, slot) -> np.ndarray | float:
        """A uniform (0,1) draw for the given stream coordinates."""
        return _draw(self.master_seed, node, k, trial, (slot,), "uniform")

    def sample(self, node, k, trial, scale, dist: Distribution):
        """Zero-mean sample(s) at the given scale.

        Gaussian / symmetric-uniform treat `scale` as the standard deviation;
        Laplace treats it as the scale parameter b (variance 2 b**2).
        """
        scale = np.asarray(scale, dtype=np.float64)
        if dist is Distribution.LAPLACE:
            scale = -scale
        elif dist is Distribution.UNIFORM_SYMMETRIC:
            scale = scale * _SQRT3
        elif dist is not Distribution.GAUSSIAN:  # pragma: no cover - enum is closed
            raise ValueError(f"unknown distribution {dist}")
        slots = (SLOT_BETA, SLOT_BETA_AUX) if dist is Distribution.GAUSSIAN else (SLOT_BETA,)
        return _draw(self.master_seed, node, k, trial, slots, dist, scale)

    def clock_gap(self, node, tick_index, trial, rate: float):
        """Exponential inter-tick gap with the given Poisson rate."""
        return _draw(self.master_seed, node, tick_index, trial, (SLOT_CLOCK,), "clock",
                     np.asarray(rate, dtype=np.float64))
