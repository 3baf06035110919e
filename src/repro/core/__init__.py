"""The SysProf toolkit itself — the paper's contribution (§2): Kprof
in-kernel capture with per-CPU double buffering, local and custom
performance analyzers (LPA/CPA, the latter compiled at runtime from a
C subset), PBIO-style binary encoding, the kernel-level
publish-subscribe dissemination daemon, the global performance
analyzer (GPA) correlating per-node streams, and the controller that
retargets monitoring at runtime."""

from repro.core.arm import ArmTracker
from repro.core.buffers import DoubleBuffer, SingleBuffer
from repro.core.channels import ChannelHub, SYSPROF_PORT_BASE, is_sysprof_port
from repro.core.controller import Controller
from repro.core.cpa import CustomAnalyzer
from repro.core.daemon import DisseminationDaemon
from repro.core.ecode import ECodeError, ECodeProgram
from repro.core.encoding import (
    FormatRegistry,
    FrameDecoder,
    RecordView,
    decode_frame,
    encode_frame,
    encode_text,
)
from repro.core.events import MonEvent
from repro.core.federation import (
    FederationTree,
    ParentLink,
    ZoneGpa,
    ZoneSpec,
    zone_channel_prefix,
)
from repro.core.gpa import CausalPath, GlobalPerformanceAnalyzer
from repro.core.publisher import ChannelPublisher
from repro.core.tier import AnalyzerTier
from repro.core.interactions import (
    InteractionRecord,
    InteractionTracker,
    MessageStats,
)
from repro.core.kprof import (
    Kprof,
    all_of,
    exclude_port_range,
    field_predicate,
    pid_predicate,
)
from repro.core.offline import EventLog, replay_interactions
from repro.core.query import GpaQueryClient, GpaQueryError, remote_query
from repro.core.lpa import (
    InteractionLPA,
    LocalPerformanceAnalyzer,
    NodeStatsLPA,
    SyscallLPA,
)
from repro.core.toolkit import NodeMonitor, SysProf, SysProfConfig

__all__ = [
    "AnalyzerTier",
    "ArmTracker",
    "CausalPath",
    "ChannelHub",
    "ChannelPublisher",
    "Controller",
    "CustomAnalyzer",
    "DisseminationDaemon",
    "FederationTree",
    "ParentLink",
    "DoubleBuffer",
    "ECodeError",
    "ECodeProgram",
    "EventLog",
    "FormatRegistry",
    "FrameDecoder",
    "RecordView",
    "GpaQueryClient",
    "GpaQueryError",
    "GlobalPerformanceAnalyzer",
    "InteractionLPA",
    "InteractionRecord",
    "InteractionTracker",
    "Kprof",
    "LocalPerformanceAnalyzer",
    "MessageStats",
    "MonEvent",
    "NodeMonitor",
    "NodeStatsLPA",
    "SYSPROF_PORT_BASE",
    "SingleBuffer",
    "SysProf",
    "SyscallLPA",
    "SysProfConfig",
    "ZoneGpa",
    "ZoneSpec",
    "all_of",
    "zone_channel_prefix",
    "decode_frame",
    "encode_frame",
    "encode_text",
    "exclude_port_range",
    "field_predicate",
    "is_sysprof_port",
    "pid_predicate",
    "remote_query",
    "replay_interactions",
]
