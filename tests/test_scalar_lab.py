"""The scalar laboratory's kernels and exp-law draws against their
written-out forms, bit for bit, and the memory the exp-law draws hold."""

import math
import tracemalloc

import numpy as np
import pytest

from stochtame import experiments
from stochtame._backend import envelope_chunk, tamed_gbm_chunk
from stochtame.experiments import exp_law_samples


def envelope_oracle(z, rec, dw, u, h, c):
    """The envelope step as one expression per quantity."""
    ch = c * h
    two_h = 2.0 * h
    for s in range(dw.shape[0]):
        dz = dw[s] - ch
        z1 = z + dz
        if u is None:
            np.maximum(rec, z1, out=rec)
        else:
            disc = dz * dz - two_h * np.log(u[s])
            seg = 0.5 * ((z + z1) + np.sqrt(disc))
            np.maximum(rec, seg, out=rec)
        z[:] = z1


def tamed_gbm_oracle(x, a, b, dw, h):
    """The tamed GBM step as one expression."""
    for s in range(dw.shape[0]):
        m = a * x
        g = b * x
        x += h * m / (1.0 + h * np.abs(m)) + dw[s] * g / (1.0 + h * g * g)


def exp_law_oracle(epsilon, n_paths, dt, T, seed=0, bridge=True):
    """The whole horizon's normals and uniforms, each drawn at once from its
    own child stream of the seed, and advanced together."""
    normal_seed, uniform_seed = np.random.SeedSequence(seed).spawn(2)
    n_steps = int(round(T / dt))
    z = np.zeros(n_paths)
    rec = np.zeros(n_paths)
    dw = np.random.default_rng(normal_seed).standard_normal((n_steps, n_paths)) * math.sqrt(dt)
    u = 1.0 - np.random.default_rng(uniform_seed).random((n_steps, n_paths)) if bridge else None
    envelope_oracle(z, rec, dw, u, dt, 0.5 * epsilon)
    return rec


@pytest.mark.parametrize("bridge", [True, False])
def test_envelope_chunk_is_its_expression(bridge):
    rng = np.random.default_rng(5)
    steps, paths, h, c = 37, 301, 0.01, 0.4
    dw = rng.standard_normal((steps, paths)) * math.sqrt(h)
    u = 1.0 - rng.random((steps, paths)) if bridge else None
    start = rng.standard_normal(paths)
    z, rec = start.copy(), np.abs(start)
    z_ref, rec_ref = start.copy(), np.abs(start)
    envelope_chunk(z, rec, dw, u, h, c)
    envelope_oracle(z_ref, rec_ref, dw, u, h, c)
    assert np.array_equal(z, z_ref) and np.array_equal(rec, rec_ref)


def test_tamed_gbm_chunk_is_its_expression():
    rng = np.random.default_rng(6)
    steps, paths, h = 64, 301, 0.0123  # not a power of two, so every rounding shows
    dw = rng.standard_normal((steps, paths)) * math.sqrt(h)
    x = np.exp(rng.standard_normal(paths))
    x_ref = x.copy()
    tamed_gbm_chunk(x, 1.5, -2.0, dw, h)
    tamed_gbm_oracle(x_ref, 1.5, -2.0, dw, h)
    assert np.array_equal(x, x_ref)


@pytest.mark.parametrize("chunk", [32, 7, 1100])
@pytest.mark.parametrize("bridge", [True, False])
def test_exp_law_samples_are_the_whole_block_loop(monkeypatch, bridge, chunk):
    # 1100 steps: a multiple of neither 32 nor 7, and one block at 1100; the
    # block size must not move a sample
    monkeypatch.setattr(experiments, "_EXP_LAW_CHUNK", chunk)
    got = exp_law_samples(0.7, 257, 0.01, 11.0, seed=9, bridge=bridge)
    want = exp_law_oracle(0.7, 257, 0.01, 11.0, seed=9, bridge=bridge)
    assert np.array_equal(got, want)


def test_exp_law_samples_hold_about_one_block_of_normals():
    # at most a quarter more than one 512-step block of normals
    n_paths = 2000
    block = 512 * n_paths * 8
    tracemalloc.start()
    try:
        exp_law_samples(1.0, n_paths, 0.01, 11.0, seed=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * block, f"peak {peak / block:.2f} blocks of normals"
