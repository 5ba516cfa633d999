"""Helpers shared by the test modules: test-only generators and views."""

import numpy as np


def reconstruct(trip):
    """``u @ diag(sigma) @ v.T`` of a :class:`tenscache.svd.SvdTriplet`."""
    return (trip.u * trip.sigma) @ trip.v.T


def synth_request_stream(
    num_files: int,
    n_bs: int,
    n_slots: int,
    requests_per_slot: int = 3000,
    zipf_a: float = 1.0,
    seed: int = 0,
) -> list[np.ndarray]:
    """Stationary random request counts with Zipf popularity (diagonal demands).

    Each (slot, bs) draws ``requests_per_slot`` requests multinomially from a
    shuffled Zipf law shared across slots and base stations.
    """
    rng = np.random.default_rng(seed)
    pop = 1.0 / np.arange(1, num_files + 1) ** zipf_a
    rng.shuffle(pop)
    pop /= pop.sum()
    slots = []
    for _ in range(n_slots):
        slot = np.zeros((num_files, num_files, n_bs))
        for b in range(n_bs):
            draws = rng.multinomial(requests_per_slot, pop)
            slot[np.arange(num_files), np.arange(num_files), b] = draws
        slots.append(slot)
    return slots
