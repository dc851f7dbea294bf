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
the thread count nor when a call runs. A call may write into the caller's
`out` array, and may run the caller's `beside()` on the calling thread
while the pool fills the blocks: `engine.simulate` reduces the last chunk
of states there while the next chunk's noise is drawn.

Slot assignment per (node, step, trial):
  0, 1  - the protocol noise draw (two uniforms feed Box-Muller),
  2     - the Poisson-clock inter-tick gap of the asynchronous engine.

There are two kinds of draw: the protocol noise of a `Distribution`
(`NoiseSource.sample`) and the clock gap (`NoiseSource.clock_gap`). Either
returns an array of at least one dimension, also for scalar coordinates.
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


def _forget_pool() -> None:
    # A forked child inherits the executor but not its threads.
    global _POOL
    _POOL = None


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def run_tasks(task, items: list, scratch=lambda: None, beside=lambda: None) -> list:
    """[task(item, buf) for item in items], on the pool if there are several,
    while this thread runs beside(); `buf` is None without `scratch`. Every
    task finishes before an error is raised, and one of beside() goes first."""
    if len(items) <= 1:
        beside()
        return [task(item, scratch()) for item in items]
    # `buf` is the running thread's own `scratch()`, made on its first task.
    pool, held = _pool(), threading.local()

    def run(item):
        if not hasattr(held, "buf"):
            held.buf = scratch()
        return task(item, held.buf)

    # Each task runs in a copy of the caller's context, so the caller's numpy
    # error state holds in the workers too.
    futures = [pool.submit(contextvars.copy_context().run, run, item) for item in items]
    try:
        beside()
    finally:
        for future in futures:
            future.exception()  # waits for the task
    return [future.result() for future in futures]


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


def _fill(out, idx, buf, prefix, trial_key, slot_keys, kind, param) -> None:
    """Draw block `idx` of `out` with the scratch buffers `buf`.

    The operations and their order are those of the draw written out:
    z = fmix(fmix(prefix ^ key(trial)) ^ key(slot)), u = ((z >> 11) + 0.5)
    * 2**-53, then the transform of `kind`, whose `param` the caller has
    prepared (products are commutative in IEEE arithmetic, so the operand
    order inside one product does not matter). z >> 11 is below 2**53, so
    it converts to float64 exactly as a signed or an unsigned integer.
    """
    o = out[idx]
    a, b, f = (x[: o.size].reshape(o.shape) for x in buf)
    tmp = f.view(np.uint64)
    p = _rows(param, idx)

    def unit(slot_key, u):
        np.bitwise_xor(a, _rows(slot_key, idx), out=b)
        _fmix64(b, tmp)
        np.right_shift(b, np.uint64(11), out=b)
        np.add(b.view(np.int64), 0.5, out=u)
        np.multiply(u, 2.0**-53, out=u)

    np.bitwise_xor(_rows(prefix, idx), _rows(trial_key, idx), out=a)
    _fmix64(a, b)
    if kind is Distribution.GAUSSIAN:  # scale * sqrt(-2 log u1) * cos(2 pi u2)
        unit(slot_keys[1], o)
        np.multiply(o, 2.0 * np.pi, out=o)
        np.cos(o, out=o)
        unit(slot_keys[0], f)
        np.log(f, out=f)
        np.multiply(f, -2.0, out=f)
        np.sqrt(f, out=f)
        np.multiply(f, o, out=o)
        np.multiply(o, p, out=o)
        return
    unit(slot_keys[0], o)
    if kind is Distribution.LAPLACE:  # (-scale * sign(t)) * log1p(-2|t|), t = u - 1/2
        np.subtract(o, 0.5, out=o)
        np.abs(o, out=f)
        np.multiply(f, -2.0, out=f)
        # At b = 2**53 - 1, and only there, b + 0.5 rounds up to u = 1.0 and
        # log1p(-1) is -inf: f takes the value of the exact u, 1 - 2**-54.
        np.maximum(f, -1.0 + 2.0**-53, out=f)
        np.log1p(f, out=f)
        # sign(t) goes into the free scratch b: numpy runs `sign` in place
        # (output aliasing input) as a branchy scalar loop, 5.4-5.7 ns per
        # random-signed value against 0.76-0.79 ns out of place (64k blocks,
        # one thread, numpy 2.4.6, 2 vCPUs with AVX-512, and the same without
        # it). copysign would flip the zero at t = 0.
        s = b.view(np.float64)
        np.sign(o, out=s)
        np.multiply(s, p, out=o)
        np.multiply(o, f, out=o)
    elif kind is Distribution.UNIFORM_SYMMETRIC:  # (scale * sqrt 3) * (2u - 1)
        np.multiply(o, 2.0, out=o)
        np.subtract(o, 1.0, out=o)
        np.multiply(o, p, out=o)
    else:  # the clock: -log(u) / rate
        np.log(o, out=o)
        np.negative(o, out=o)
        np.divide(o, p, out=o)


def _draw(seed: int, node, k, trial, slots, kind, param, out=None, beside=lambda: None):
    """Draws of `kind` ("clock" or a Distribution) broadcast over the
    coordinates and `param`, in an array of at least one dimension (`out`,
    C-contiguous float64 of that shape, if given), while beside() runs (see
    `run_tasks`). The Gaussian takes two slots, the other kinds one."""
    operands = [*(np.asarray(x, dtype=np.uint64) for x in (node, k, trial, *slots)),
                np.asarray(param)]
    shape = np.broadcast(*operands).shape or (1,)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64 or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {shape}")
    node, k, trial, *slots, param = (x.reshape((1,) * (len(shape) - x.ndim) + x.shape)
                                     for x in operands)
    prefix = np.full(np.broadcast(node, k).shape, seed & _MASK64, np.uint64)
    # uint64 arrays wrap on overflow without a warning.
    np.add(prefix, _GOLDEN, out=prefix)
    tmp = np.empty_like(prefix)
    _fmix64(prefix, tmp)
    for part in (node, k):
        np.bitwise_xor(prefix, _key(part), out=prefix)
        _fmix64(prefix, tmp)
    trial_key = _key(trial)
    slot_keys = [_key(slot) for slot in slots]
    size = min(out.size, NOISE_BLOCK)
    # Each worker makes its buffers: its arena keeps them when they are
    # freed, for its next call. Buffers the calling thread made would go
    # back to the system and fault in again on every call.
    run_tasks(lambda idx, buf: _fill(out, idx, buf, prefix, trial_key, slot_keys, kind, param),
              list(_blocks(out.shape, NOISE_BLOCK)) if out.size else [],
              lambda: (np.empty(size, np.uint64), np.empty(size, np.uint64), np.empty(size)),
              beside)
    return out


@dataclass(frozen=True)
class NoiseSource:
    """Counter-based stream of zero-mean noise, keyed by a 64-bit master seed."""

    master_seed: int

    def sample(self, node, k, trial, scale, dist: Distribution, out=None,
               beside=lambda: None) -> np.ndarray:
        """Zero-mean sample(s) at the given scale, with `out` and `beside` as in `_draw`.

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
        return _draw(self.master_seed, node, k, trial, slots, dist, scale, out, beside)

    def clock_gap(self, node, tick_index, trial, rate: float) -> np.ndarray:
        """Exponential inter-tick gap with the given Poisson rate."""
        return _draw(self.master_seed, node, tick_index, trial, (SLOT_CLOCK,), "clock",
                     np.asarray(rate, dtype=np.float64))
