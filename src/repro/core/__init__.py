"""The paper's primary contribution: the flexible coupling runtime.

Public surface:

* :class:`~repro.core.instance.ApplicationInstance` — the client runtime
  (register, couple/decouple, CopyFrom/CopyTo/RemoteCopy, CoSendCommand);
* :mod:`~repro.core.compat` — object compatibility (§3.3);
* :mod:`~repro.core.merging` — destructive merging / flexible matching;
* :mod:`~repro.core.state_sync` — synchronization by UI state (§3.1);
* :mod:`~repro.core.action_sync` — synchronization by multiple execution
  (§3.2, the floor-control algorithm);
* :mod:`~repro.core.receiver` — the receive side of §3.2: which numbered
  delivery (roster change, event) applies, is a duplicate or shows a gap;
* :class:`~repro.core.semantic.SemanticHookRegistry` — semantic store/load;
* :class:`~repro.core.commands.CommandRegistry` — CoSendCommand dispatch.
"""

from repro.core.action_sync import ExecutionResult, FloorGrant
from repro.core.commands import CommandRegistry
from repro.core.compat import (
    AttributeMapping,
    ComponentMapping,
    CorrespondenceRegistry,
    DEFAULT_CORRESPONDENCES,
    EXHAUSTIVE,
    HEURISTIC,
    MatchResult,
    MatchStats,
    PREDEFINED,
    attribute_mapping,
    declare_inferred,
    directly_compatible,
    ensure_compatible,
    infer_correspondence,
    structurally_compatible,
    translate_state,
)
from repro.core.groups import CouplingGroup
from repro.core.instance import ApplicationInstance
from repro.core.merging import MergeReport, destructive_merge, flexible_match
from repro.core.semantic import SemanticHookRegistry, attach_attribute_semantics
from repro.core.state_sync import (
    AUTO,
    ApplyReport,
    FLEXIBLE,
    MERGE,
    MODES,
    STRICT,
    apply_state_payload,
    build_state_payload,
)

__all__ = [
    "AUTO",
    "ApplicationInstance",
    "ApplyReport",
    "AttributeMapping",
    "CommandRegistry",
    "ComponentMapping",
    "CorrespondenceRegistry",
    "CouplingGroup",
    "declare_inferred",
    "infer_correspondence",
    "DEFAULT_CORRESPONDENCES",
    "EXHAUSTIVE",
    "ExecutionResult",
    "FLEXIBLE",
    "FloorGrant",
    "HEURISTIC",
    "MERGE",
    "MODES",
    "MatchResult",
    "MatchStats",
    "MergeReport",
    "PREDEFINED",
    "STRICT",
    "SemanticHookRegistry",
    "apply_state_payload",
    "attach_attribute_semantics",
    "attribute_mapping",
    "build_state_payload",
    "destructive_merge",
    "directly_compatible",
    "ensure_compatible",
    "flexible_match",
    "structurally_compatible",
    "translate_state",
]
