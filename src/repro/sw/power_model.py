"""Instruction-level power model (Tiwari-style).

The model follows the structure of the measurement-based model the
paper plugs into SPARCsim [Tiwari et al., IEEE TVLSI 1994]:

* a *base cost* per instruction class — the average current drawn while
  instructions of that class execute,
* an *inter-instruction (circuit-state) overhead* added for every pair
  of adjacent instructions of different classes,
* extra costs for pipeline stall cycles and pipeline fill cycles,
* an optional *data-dependence* term.  For the SPARClite the measured
  variation with operand values was empirically very small, which is
  exactly why the paper's energy caching introduced no error (Table 1
  discussion); the coefficient therefore defaults to zero.  Setting it
  non-zero emulates a DSP-like target and reproduces the spread-out
  energy histograms of Figure 4(b).

Costs are expressed as supply currents (amperes); energy per cycle is
``Vdd * I * T_clk``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict, Tuple

from repro.sw.isa import InstructionClass

#: Default base supply current per instruction class, in amperes.
#: Relative magnitudes follow published instruction-level measurements:
#: memory instructions draw the most, NOPs the least.
DEFAULT_BASE_CURRENT: Dict[str, float] = {
    InstructionClass.ALU: 0.240,
    InstructionClass.LOAD: 0.285,
    InstructionClass.STORE: 0.270,
    InstructionClass.BRANCH: 0.225,
    InstructionClass.MUL: 0.300,
    InstructionClass.DIV: 0.290,
    InstructionClass.CALL: 0.245,
    InstructionClass.NOP: 0.170,
}

#: Default inter-instruction overhead current (amperes) charged once at
#: every boundary between instructions of *different* classes.
DEFAULT_OVERHEAD_CURRENT: Dict[Tuple[str, str], float] = {}


def _symmetric(table: Dict[Tuple[str, str], float], a: str, b: str, value: float) -> None:
    table[(a, b)] = value
    table[(b, a)] = value


_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.ALU, InstructionClass.LOAD, 0.020)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.ALU, InstructionClass.STORE, 0.018)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.ALU, InstructionClass.BRANCH, 0.012)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.ALU, InstructionClass.MUL, 0.025)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.ALU, InstructionClass.DIV, 0.025)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.ALU, InstructionClass.CALL, 0.015)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.ALU, InstructionClass.NOP, 0.010)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.LOAD, InstructionClass.STORE, 0.012)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.LOAD, InstructionClass.BRANCH, 0.022)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.LOAD, InstructionClass.NOP, 0.015)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.STORE, InstructionClass.BRANCH, 0.020)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.STORE, InstructionClass.NOP, 0.014)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.BRANCH, InstructionClass.NOP, 0.008)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.MUL, InstructionClass.LOAD, 0.028)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.MUL, InstructionClass.STORE, 0.026)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.DIV, InstructionClass.LOAD, 0.028)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.CALL, InstructionClass.LOAD, 0.018)
_symmetric(DEFAULT_OVERHEAD_CURRENT, InstructionClass.CALL, InstructionClass.NOP, 0.010)


def _popcount(value: int) -> int:
    """Population count of the low 32 bits of ``value``."""
    return bin(value & 0xFFFFFFFF).count("1")


@dataclass
class InstructionPowerModel:
    """Per-instruction energy computation.

    Attributes:
        vdd: supply voltage in volts.
        clock_period_s: processor clock period in seconds.
        base_current: amperes per instruction class.
        overhead_current: amperes charged at class boundaries.
        stall_current: amperes drawn during interlock stall cycles.
        fill_current: amperes drawn during pipeline fill cycles.
        data_alpha: joules per result bit set; zero for the SPARClite
            default (data-independent model).
    """

    vdd: float = 3.3
    clock_period_s: float = 10e-9
    base_current: Dict[str, float] = field(
        default_factory=lambda: dict(DEFAULT_BASE_CURRENT)
    )
    overhead_current: Dict[Tuple[str, str], float] = field(
        default_factory=lambda: dict(DEFAULT_OVERHEAD_CURRENT)
    )
    stall_current: float = 0.150
    fill_current: float = 0.170
    data_alpha: float = 0.0

    @classmethod
    def default_sparclite(cls) -> "InstructionPowerModel":
        """The data-independent model used throughout the paper."""
        return cls()

    @classmethod
    def dsp_like(cls, data_alpha: float = 0.08e-9) -> "InstructionPowerModel":
        """A model with operand-value dependence (paper, Section 5.2).

        Used to study the error that energy caching introduces on
        processors whose power depends on instruction data values.
        """
        return cls(data_alpha=data_alpha)

    def signature(self) -> Tuple:
        """Hashable value identity over every field of the model.

        Two models with equal signatures give identical energies for
        identical instruction streams, so the signature is a safe key
        for characterization results.
        """
        return tuple(
            tuple(sorted(value.items())) if isinstance(value, dict) else value
            for value in (getattr(self, f.name) for f in fields(self))
        )

    def _energy_per_cycle(self, current: float) -> float:
        return self.vdd * current * self.clock_period_s

    def instruction_energy(
        self,
        instruction_class: str,
        cycles: int,
        previous_class: str = "",
        result_value: int = 0,
    ) -> float:
        """Energy in joules for one instruction execution.

        Args:
            instruction_class: class of the executing instruction.
            cycles: base cycles the instruction occupies.
            previous_class: class of the previously retired instruction
                (empty at the start of a run).
            result_value: the value produced, used only when
                ``data_alpha`` is non-zero.

        For the (default) data-independent model the result depends
        only on a small key, which is memoized — this method runs once
        per simulated instruction, the ISS's hot loop.
        """
        if not self.data_alpha:
            cache = self.__dict__.get("_energy_cache")
            if cache is None:
                cache = {}
                self._energy_cache = cache
            key = (instruction_class, cycles, previous_class)
            cached = cache.get(key)
            if cached is not None:
                return cached
        energy = self._energy_per_cycle(self.base_current[instruction_class]) * cycles
        if previous_class and previous_class != instruction_class:
            overhead = self.overhead_current.get(
                (previous_class, instruction_class), 0.010
            )
            energy += self._energy_per_cycle(overhead)
        if self.data_alpha:
            energy += self.data_alpha * _popcount(result_value)
            return energy
        cache[key] = energy
        return energy

    def stall_energy(self, cycles: int) -> float:
        """Energy in joules for ``cycles`` interlock stall cycles."""
        return self._energy_per_cycle(self.stall_current) * cycles

    def fill_energy(self, cycles: int) -> float:
        """Energy in joules for ``cycles`` pipeline fill cycles."""
        return self._energy_per_cycle(self.fill_current) * cycles
