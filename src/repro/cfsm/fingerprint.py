"""Structural fingerprints of CFSMs and transition bodies.

Design-space exploration rebuilds the same system over and over with
slightly different parameters, and several acceleration layers (the
compiled-simulator cache, the codegen/synthesis caches, warm-started
energy caching) need a *value identity* for a CFSM: two CFSM objects
with equal fingerprints behave identically under simulation, synthesis
and code generation.

``repr`` alone is not enough — ``If``/``Loop`` statements summarize
their bodies as statement counts, so two transitions that differ only
inside a nested block would compare equal.  The walkers here (and
:func:`repro.cfsm.sgraph.statement_signature`) descend recursively;
expression reprs are already fully recursive.
"""

from __future__ import annotations

import hashlib
from typing import Tuple

from repro.cfsm.model import Cfsm, Transition
# The statement walker lives with the statements (the s-graph compiler
# keys its cache on it); it is re-exported here with the other walkers.
from repro.cfsm.sgraph import statement_signature  # noqa: F401


def transition_signature(transition: Transition) -> tuple:
    """Structural signature of one transition (trigger, guard, body)."""
    return (
        transition.name,
        tuple(transition.trigger),
        None if transition.guard is None else repr(transition.guard),
        tuple(transition.consumes),
        tuple(statement_signature(stmt) for stmt in transition.body.statements),
    )


def cfsm_signature(cfsm: Cfsm) -> Tuple:
    """Hashable value identity of a CFSM.

    Covers everything synthesis, code generation and simulation read:
    interface event types, variables and initial values, shared-memory
    residency, datapath width, clock, and every transition body
    recursively.
    """
    return (
        cfsm.name,
        cfsm.width,
        cfsm.clock_period_ns,
        tuple(sorted((name, repr(t)) for name, t in cfsm.inputs.items())),
        tuple(sorted((name, repr(t)) for name, t in cfsm.outputs.items())),
        tuple(sorted(cfsm.variables.items())),
        tuple(sorted(cfsm.shared_variables)),
        tuple(transition_signature(t) for t in cfsm.transitions),
    )


def cfsm_digest(cfsm: Cfsm, *extras) -> str:
    """SHA-256 hex digest of a CFSM signature plus caller context.

    ``extras`` lets callers fold in whatever else their cached artifact
    depends on (a library signature, a power-model repr, a memory
    base); anything with a deterministic ``repr`` works.
    """
    payload = (cfsm_signature(cfsm),) + tuple(extras)
    return hashlib.sha256(repr(payload).encode("utf-8")).hexdigest()
