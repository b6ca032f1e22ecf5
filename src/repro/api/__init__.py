"""repro.api — the versioned request/response surface of the server.

The paper sells fast liveness *checking* as a service to many client
passes; this package is the service's front door, grown in four layers:

* :mod:`repro.api.registry` — the engine registry: every selectable
  liveness/interference engine is an :class:`EngineSpec` (name, oracle
  factory, capabilities), and every client resolves engine names here —
  third-party oracles plug in without touching core.
* :mod:`repro.api.protocol` — the tagged union of request/response
  dataclasses with lossless, versioned JSON encoding, so the service can
  be driven over a wire or replayed from a log.
* :mod:`repro.api.handles` — revisioned :class:`FunctionHandle` values
  that turn the paper's invalidation contract into an enforceable API
  (stale handles get ``STALE_HANDLE`` errors, not stale answers).
* :mod:`repro.api.client` — :class:`CompilerClient`, the
  ``dispatch(request) -> response`` façade wrapping compile → liveness →
  destruct → allocate.
"""

from repro.api.client import CompilerClient
from repro.api.errors import ApiError, ErrorCode, ProtocolError, StaleHandleError
from repro.api.handles import FunctionHandle
from repro.api.protocol import (
    PROTOCOL_VERSION,
    AllocateRequest,
    AllocateResponse,
    AllocationSummary,
    BatchLiveness,
    BatchLivenessResponse,
    CompileSourceRequest,
    CompileSourceResponse,
    DestructRequest,
    DestructResponse,
    DestructStats,
    ErrorResponse,
    EvictRequest,
    EvictResponse,
    LivenessQuery,
    LivenessResponse,
    LiveSetRequest,
    LiveSetResponse,
    NotifyKind,
    NotifyRequest,
    NotifyResponse,
    QueryKind,
    Request,
    Response,
    StatsRequest,
    StatsResponse,
    attach_trace,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
    trace_context,
)
from repro.api.registry import (
    DATAFLOW,
    FAST,
    GRAPH,
    EngineCapabilities,
    EngineSpec,
    UnknownEngineError,
    available_engines,
    engine_specs,
    get_engine,
    register_engine,
    unregister_engine,
)

__all__ = [
    "PROTOCOL_VERSION",
    # errors
    "ApiError",
    "ErrorCode",
    "ProtocolError",
    "StaleHandleError",
    # handles
    "FunctionHandle",
    # registry
    "DATAFLOW",
    "FAST",
    "GRAPH",
    "EngineCapabilities",
    "EngineSpec",
    "UnknownEngineError",
    "available_engines",
    "engine_specs",
    "get_engine",
    "register_engine",
    "unregister_engine",
    # protocol
    "AllocateRequest",
    "AllocateResponse",
    "AllocationSummary",
    "BatchLiveness",
    "BatchLivenessResponse",
    "CompileSourceRequest",
    "CompileSourceResponse",
    "DestructRequest",
    "DestructResponse",
    "DestructStats",
    "ErrorResponse",
    "EvictRequest",
    "EvictResponse",
    "LivenessQuery",
    "LivenessResponse",
    "LiveSetRequest",
    "LiveSetResponse",
    "NotifyKind",
    "NotifyRequest",
    "NotifyResponse",
    "QueryKind",
    "Request",
    "Response",
    "StatsRequest",
    "StatsResponse",
    "attach_trace",
    "decode_request",
    "decode_response",
    "encode_request",
    "encode_response",
    "trace_context",
    # client
    "CompilerClient",
]
