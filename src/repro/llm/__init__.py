"""LLM layer: the simulated repair model (offline stand-in for GPT-3.5 /
GPT-4) plus the documented OpenAI-API path."""

from .base import ChatMessage, LLMClient, RepairModel, RepairSession, RepairStep
from .openai_stub import (
    OpenAIRepairModel,
    build_repair_messages,
    parse_repair_reply,
)
from .backends import OpenAIChatClient, SimulatedChatClient
from .pool import (
    BackendSpec,
    LLMPool,
    PooledRepairModel,
    PooledRepairSession,
    RoutingSpec,
    get_default_llm_routing,
    routing_from_config,
    use_llm_routing,
)
from .repair.diagnosis import ParsedError, detect_flavor, parse_feedback
from .repair.logic_strategies import enumerate_logic_edits
from .repair.strategies import STRATEGIES, apply_strategy, declared_names
from .simfix import LOGIC_CAPABILITY, PooledLogicModel, SimulatedLogicDebugger
from .simulated import CAPABILITY, CATEGORY_DELTA, ROUND_SUCCESS, SimulatedLLM

__all__ = [
    "BackendSpec",
    "CAPABILITY",
    "CATEGORY_DELTA",
    "ChatMessage",
    "LLMPool",
    "OpenAIChatClient",
    "PooledLogicModel",
    "PooledRepairModel",
    "PooledRepairSession",
    "RoutingSpec",
    "SimulatedChatClient",
    "get_default_llm_routing",
    "routing_from_config",
    "use_llm_routing",
    "LLMClient",
    "LOGIC_CAPABILITY",
    "SimulatedLogicDebugger",
    "enumerate_logic_edits",
    "OpenAIRepairModel",
    "ParsedError",
    "ROUND_SUCCESS",
    "RepairModel",
    "RepairSession",
    "RepairStep",
    "STRATEGIES",
    "SimulatedLLM",
    "apply_strategy",
    "build_repair_messages",
    "declared_names",
    "detect_flavor",
    "parse_feedback",
    "parse_repair_reply",
]
