"""Golden energies: every co-estimation total, pinned to the last bit.

Each value is ``float.hex(total_energy_j)`` of one run, recorded with
CPython 3.10, 3.11 and 3.12 (all three gave the same bits, so the table
is not keyed by version).  A change that moves any energy by one ulp —
a reordered sum, a different rounding, a behavioral trace that differs —
fails here, whatever its size.

Two families are pinned:

* the 16 bundled (system, strategy) pairs, as ``repro estimate`` and the
  service run them;
* TCP/IP at DMA 2, 8 and 64 words with 8 packets under the four
  strategies, the shape of the ``coest`` benchmark workload.
"""

import pytest

from repro.core import PowerCoEstimator
from repro.systems import build_bundle, tcpip

BUNDLED = {
    ('automotive', 'full'): '0x1.0b20adf565ff4p-15',
    ('automotive', 'caching'): '0x1.0b1fb10e4e948p-15',
    ('automotive', 'macromodel'): '0x1.2f32d50bfd4d0p-15',
    ('automotive', 'sampling'): '0x1.0b207ba9507a4p-15',
    ('fig1', 'full'): '0x1.967fb1f386716p-15',
    ('fig1', 'caching'): '0x1.967f516c7b676p-15',
    ('fig1', 'macromodel'): '0x1.047de3d0553a9p-14',
    ('fig1', 'sampling'): '0x1.967f5ba2fa08ep-15',
    ('tcpip', 'full'): '0x1.112eb5670a408p-13',
    ('tcpip', 'caching'): '0x1.112eb01862e92p-13',
    ('tcpip', 'macromodel'): '0x1.2fe6a70f23422p-13',
    ('tcpip', 'sampling'): '0x1.112f1939d28c1p-13',
    ('tcpip-out', 'full'): '0x1.a78bc484d4181p-13',
    ('tcpip-out', 'caching'): '0x1.a78b7ff574569p-13',
    ('tcpip-out', 'macromodel'): '0x1.d12a49e239c88p-13',
    ('tcpip-out', 'sampling'): '0x1.a78d00b96c457p-13',
}

TCPIP_8_PACKETS = {
    (2, 'full'): '0x1.c5486efcdb7d1p-11',
    (2, 'caching'): '0x1.c545be3151631p-11',
    (2, 'macromodel'): '0x1.efeb30a405855p-11',
    (2, 'sampling'): '0x1.c4370804e24bcp-11',
    (8, 'full'): '0x1.3cd75eb27e828p-11',
    (8, 'caching'): '0x1.3cd65f3f14186p-11',
    (8, 'macromodel'): '0x1.5fc1ef5a72a73p-11',
    (8, 'sampling'): '0x1.3bc5a061635b4p-11',
    (64, 'full'): '0x1.1b5be11a54c3ap-11',
    (64, 'caching'): '0x1.1b5bd402729f8p-11',
    (64, 'macromodel'): '0x1.3c087fec32a5fp-11',
    (64, 'sampling'): '0x1.1a49b70e59fc3p-11',
}


def _total_energy_hex(bundle, strategy):
    estimator = PowerCoEstimator(bundle.network, bundle.config)
    result = estimator.estimate(
        bundle.stimuli(),
        strategy=strategy,
        shared_memory_image=bundle.shared_memory_image,
    )
    return result.report.total_energy_j.hex()


@pytest.mark.parametrize("system,strategy", sorted(BUNDLED))
def test_bundled_energy_is_bit_identical(system, strategy):
    bundle = build_bundle(system)
    assert _total_energy_hex(bundle, strategy) == BUNDLED[(system, strategy)]


@pytest.mark.parametrize("dma,strategy", sorted(TCPIP_8_PACKETS))
def test_tcpip_8_packet_energy_is_bit_identical(dma, strategy):
    bundle = tcpip.build_system(
        dma_block_words=dma, num_packets=8, size_range=(48, 96)
    )
    assert _total_energy_hex(bundle, strategy) == TCPIP_8_PACKETS[(dma, strategy)]
