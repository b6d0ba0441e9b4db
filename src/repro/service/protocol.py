"""Wire protocol of the allocation service.

Three POST endpoints share one request shape::

    {
      "kernel": ".kernel saxpy\\n...",      # IR text, or
      "benchmark": "matrixmul",             # a registry benchmark name
      "scale": 1.0,                         # benchmark only
      "warps": [{"live_in": {"R0": 0}, "max_instructions": 200000}],
      "scheme": {"kind": "sw_lrf", "entries_per_thread": 3,
                 "split_lrf": true}
    }

``/v1/evaluate`` accepts any scheme and returns the engine's
evaluation record (see :mod:`repro.engine.records`) verbatim under
``"record"`` — byte-identical to what the direct engine path computes.
``/v1/allocate`` requires a software scheme and returns the allocation
summary, the per-strand report, and the annotation document of
:mod:`repro.alloc.serialize`.  ``/v1/tune`` replaces the fixed
``"scheme"`` with search parameters (``strategy``, ``budget``,
``seed``, ``objective``, and an optional ``space`` restriction) and
returns the tuner payload of :func:`repro.tuner.runner.run_tune` —
best config, explored frontier, and search trace.

Every request normalises to a :class:`ServiceJob`: a canonical,
picklable job payload plus a content fingerprint.  The fingerprint
hashes the *parsed* kernel's content (so two textual spellings of one
kernel deduplicate), the canonical warp JSON, and the scheme — it is
the key for in-flight dedup, the in-memory result memo, and the
on-disk cache.

A request also has a :func:`body_key`: SHA-256 of its op and raw body
bytes, known before anything is decoded.  The server keys the stored
bytes of a repeated body's reply on it.

Errors map to HTTP statuses through the exception hierarchy rooted at
:class:`ServiceFault`; handlers never leak tracebacks to clients.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from ..engine.hashing import dataclass_fingerprint, digest, json_fingerprint
from ..ir.parser import parse_kernels
from ..ir.registers import parse_register
from ..sim.executor import WarpInput
from ..sim.schemes import Scheme, SchemeKind
from ..workloads.suites import BENCHMARK_NAMES

#: Request-shape limits (pre-admission, so malformed or abusive
#: requests are rejected before any CPU-bound work is queued).
MAX_KERNEL_TEXT = 256 * 1024
MAX_WARPS = 64
MAX_WARP_INSTRUCTIONS = 1_000_000
MAX_SCALE = 64.0
#: Distinct-evaluation ceiling for one ``/v1/tune`` request: the
#: search is CPU-bound per candidate, so the cap bounds worst-case
#: worker occupancy the way MAX_WARP_INSTRUCTIONS bounds a trace walk.
MAX_TUNE_BUDGET = 256
MAX_TUNE_SEED = 2**32 - 1

_SCHEME_KINDS = {kind.value: kind for kind in SchemeKind}
_SCHEME_BOOL_FIELDS = (
    "split_lrf",
    "enable_partial_ranges",
    "enable_read_operands",
    "allow_forward_branches",
    "flush_on_backward_branch",
    "assume_persistent_strands",
)


class ServiceFault(Exception):
    """Base of every fault the service reports to a client."""

    status = 500
    error_type = "internal_error"

    def __init__(
        self, message: str, retry_after: Optional[float] = None
    ) -> None:
        super().__init__(message)
        self.retry_after = retry_after

    def to_payload(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "error": {"type": self.error_type, "message": str(self)}
        }
        if self.retry_after is not None:
            payload["error"]["retry_after"] = self.retry_after
        return payload


class BadRequest(ServiceFault):
    status = 400
    error_type = "bad_request"


class ParseError(BadRequest):
    """The kernel text is not one well-formed kernel: a syntax error, a
    bad register name, or a structural fault (a duplicate block label,
    a branch to nowhere).  The message is the parser's or validator's
    diagnostic, never a traceback."""

    error_type = "parse_error"


class KernelExecutionError(ServiceFault):
    """The kernel parsed but cannot run on the request's warps: it reads
    a register nothing wrote or exceeds its instruction budget.  The
    same request fails the same way, so it is not worth a retry."""

    status = 422
    error_type = "kernel_execution_error"


class Overloaded(ServiceFault):
    status = 429
    error_type = "overloaded"


class Draining(ServiceFault):
    status = 503
    error_type = "draining"


class WorkerLost(ServiceFault):
    """No pool worker finished the job: the one running it died (its
    replacement is already forked), or none could be forked.  A retry
    recomputes."""

    status = 503
    error_type = "worker_lost"


class RequestTimeout(ServiceFault):
    status = 504
    error_type = "timeout"


# -- scheme codec ----------------------------------------------------------


def scheme_to_json(scheme: Scheme) -> Dict[str, Any]:
    return {
        "kind": scheme.kind.value,
        "entries_per_thread": scheme.entries_per_thread,
        "split_lrf": scheme.split_lrf,
        "lrf_banks": scheme.lrf_banks,
        "enable_partial_ranges": scheme.enable_partial_ranges,
        "enable_read_operands": scheme.enable_read_operands,
        "allow_forward_branches": scheme.allow_forward_branches,
        "flush_on_backward_branch": scheme.flush_on_backward_branch,
        "assume_persistent_strands": scheme.assume_persistent_strands,
    }


def scheme_from_json(obj: Any) -> Scheme:
    if not isinstance(obj, dict):
        raise BadRequest("'scheme' must be an object")
    unknown = set(obj) - {
        "kind", "entries_per_thread", "lrf_banks", *_SCHEME_BOOL_FIELDS
    }
    if unknown:
        raise BadRequest(
            f"unknown scheme field(s): {', '.join(sorted(unknown))}"
        )
    kind_name = obj.get("kind")
    kind = _SCHEME_KINDS.get(kind_name)
    if kind is None:
        raise BadRequest(
            f"unknown scheme kind {kind_name!r}; "
            f"known: {', '.join(sorted(_SCHEME_KINDS))}"
        )
    entries = obj.get("entries_per_thread", 3)
    if not isinstance(entries, int) or isinstance(entries, bool):
        raise BadRequest("'entries_per_thread' must be an integer")
    kwargs: Dict[str, Any] = {}
    if "lrf_banks" in obj:
        banks = obj["lrf_banks"]
        if (
            not isinstance(banks, int)
            or isinstance(banks, bool)
            or not 1 <= banks <= 3
        ):
            raise BadRequest("'lrf_banks' must be an integer in 1..3")
        kwargs["lrf_banks"] = banks
    for name in _SCHEME_BOOL_FIELDS:
        if name in obj:
            if not isinstance(obj[name], bool):
                raise BadRequest(f"{name!r} must be a boolean")
            kwargs[name] = obj[name]
    try:
        return Scheme(kind, entries, **kwargs)
    except ValueError as error:
        raise BadRequest(str(error)) from None


# -- warp codec ------------------------------------------------------------


def warps_from_json(obj: Any) -> List[WarpInput]:
    """Build concrete :class:`WarpInput` objects from warp JSON."""
    canonical = canonical_warps(obj)
    inputs: List[WarpInput] = []
    for warp in canonical:
        live_in = {
            parse_register(name): value
            for name, value in warp["live_in"].items()
        }
        inputs.append(
            WarpInput(
                live_in_values=live_in,
                max_instructions=warp["max_instructions"],
            )
        )
    return inputs


def canonical_warps(obj: Any) -> List[Dict[str, Any]]:
    """Validate warp JSON and normalise it for fingerprinting."""
    if obj is None:
        obj = [{}]
    if not isinstance(obj, list) or not obj:
        raise BadRequest("'warps' must be a non-empty list")
    if len(obj) > MAX_WARPS:
        raise BadRequest(f"at most {MAX_WARPS} warps per request")
    canonical: List[Dict[str, Any]] = []
    for index, warp in enumerate(obj):
        if not isinstance(warp, dict):
            raise BadRequest(f"warps[{index}] must be an object")
        unknown = set(warp) - {"live_in", "max_instructions"}
        if unknown:
            raise BadRequest(
                f"warps[{index}]: unknown field(s): "
                f"{', '.join(sorted(unknown))}"
            )
        live_in = warp.get("live_in", {})
        if not isinstance(live_in, dict):
            raise BadRequest(f"warps[{index}].live_in must be an object")
        clean: Dict[str, Any] = {}
        for name, value in live_in.items():
            try:
                register = parse_register(str(name))
            except ValueError as error:
                raise BadRequest(
                    f"warps[{index}].live_in: {error}"
                ) from None
            if not isinstance(value, (int, float)) or isinstance(
                value, bool
            ):
                raise BadRequest(
                    f"warps[{index}].live_in[{name!r}] must be a number"
                )
            clean[str(register)] = value
        max_instructions = warp.get("max_instructions", 200_000)
        if (
            not isinstance(max_instructions, int)
            or isinstance(max_instructions, bool)
            or not 1 <= max_instructions <= MAX_WARP_INSTRUCTIONS
        ):
            raise BadRequest(
                f"warps[{index}].max_instructions must be an integer "
                f"in 1..{MAX_WARP_INSTRUCTIONS}"
            )
        canonical.append(
            {
                "live_in": dict(sorted(clean.items())),
                "max_instructions": max_instructions,
            }
        )
    return canonical


# -- tune codec ------------------------------------------------------------

_TUNE_FIELDS = ("strategy", "budget", "seed", "objective", "space")


def canonical_tune(body: Dict[str, Any]) -> Dict[str, Any]:
    """Validate the tune-specific request fields and canonicalise them.

    The returned block is what workers replay
    (:func:`repro.tuner.runner.run_tune` arguments) *and* what the
    fingerprint hashes; the search space is resolved to its explicit
    per-axis value lists, so two spellings of one subspace — or an
    omitted axis vs. its full default list — deduplicate.
    """
    from ..tuner.objective import OBJECTIVES
    from ..tuner.space import space_from_dict
    from ..tuner.strategies import STRATEGY_NAMES

    strategy = body.get("strategy", "evolutionary")
    if strategy not in STRATEGY_NAMES:
        raise BadRequest(
            f"unknown strategy {strategy!r}; "
            f"known: {', '.join(sorted(STRATEGY_NAMES))}"
        )
    objective = body.get("objective", "energy")
    if objective not in OBJECTIVES:
        raise BadRequest(
            f"unknown objective {objective!r}; "
            f"known: {', '.join(sorted(OBJECTIVES))}"
        )
    budget = body.get("budget", 64)
    if (
        not isinstance(budget, int)
        or isinstance(budget, bool)
        or not 1 <= budget <= MAX_TUNE_BUDGET
    ):
        raise BadRequest(
            f"'budget' must be an integer in 1..{MAX_TUNE_BUDGET}"
        )
    seed = body.get("seed", 0)
    if (
        not isinstance(seed, int)
        or isinstance(seed, bool)
        or not 0 <= seed <= MAX_TUNE_SEED
    ):
        raise BadRequest(f"'seed' must be an integer in 0..{MAX_TUNE_SEED}")
    space_json = body.get("space")
    try:
        space = space_from_dict(
            space_json if space_json is not None else {}
        )
    except ValueError as error:
        raise BadRequest(f"'space': {error}") from None
    return {
        "strategy": strategy,
        "budget": budget,
        "seed": seed,
        "objective": objective,
        "space": {"parameters": space.to_dict()["parameters"]},
    }


# -- request normalisation -------------------------------------------------


def body_key(op: str, body: bytes) -> str:
    """SHA-256 hex of ``op`` and the raw request ``body``: the key of a
    repeated body's stored reply bytes in the server's result memo.

    Byte-identical requests share the key; two spellings of one job do
    not (their :class:`ServiceJob` fingerprints still match).
    """
    return hashlib.sha256(op.encode("utf-8") + b"\0" + body).hexdigest()


@dataclass(frozen=True)
class ServiceJob:
    """One normalised, deduplicatable unit of service work.

    ``payload`` is a plain JSON-able dict — the only thing shipped to
    pool workers (see :func:`repro.service.pipeline.run_service_job`);
    ``fingerprint`` keys dedup, memo, and disk cache.
    """

    op: str
    fingerprint: str
    payload: Dict[str, Any]


def normalize_request(op: str, body: Any) -> ServiceJob:
    """Validate a request body and reduce it to a :class:`ServiceJob`.

    Raises :class:`BadRequest` (or :class:`ParseError`) with a clean,
    client-facing message on any invalid input.
    """
    if op not in ("allocate", "evaluate", "tune"):
        raise BadRequest(f"unknown operation {op!r}")
    if not isinstance(body, dict):
        raise BadRequest("request body must be a JSON object")
    allowed = {"kernel", "benchmark", "scale", "warps", "scheme"}
    if op == "tune":
        # The search replaces the fixed scheme: tune requests carry the
        # search parameters instead.
        if "scheme" in body:
            raise BadRequest(
                "'scheme' does not apply to tune; the search space "
                "replaces it"
            )
        allowed = {"kernel", "benchmark", "scale", "warps", *_TUNE_FIELDS}
    unknown = set(body) - allowed
    if unknown:
        raise BadRequest(
            f"unknown request field(s): {', '.join(sorted(unknown))}"
        )

    tune_block: Optional[Dict[str, Any]] = None
    scheme_json: Optional[Dict[str, Any]] = None
    if op == "tune":
        tune_block = canonical_tune(body)
        work_fp = json_fingerprint(tune_block)
    else:
        scheme = scheme_from_json(body.get("scheme", {"kind": "sw_lrf"}))
        if op == "allocate" and not scheme.kind.is_software:
            raise BadRequest(
                "allocate requires a software scheme "
                "(kind 'sw' or 'sw_lrf')"
            )
        scheme_json = scheme_to_json(scheme)
        work_fp = dataclass_fingerprint(scheme)

    kernel_text = body.get("kernel")
    benchmark = body.get("benchmark")
    if (kernel_text is None) == (benchmark is None):
        raise BadRequest(
            "exactly one of 'kernel' (IR text) or 'benchmark' is required"
        )

    if benchmark is not None:
        if not isinstance(benchmark, str):
            raise BadRequest("'benchmark' must be a string")
        if benchmark.lower() not in BENCHMARK_NAMES:
            raise BadRequest(f"unknown benchmark {benchmark!r}")
        if "warps" in body:
            raise BadRequest(
                "'warps' applies only to IR-text kernels; benchmarks "
                "carry their own warp inputs"
            )
        scale = body.get("scale", 1.0)
        if (
            not isinstance(scale, (int, float))
            or isinstance(scale, bool)
            or not 0.0 < float(scale) <= MAX_SCALE
        ):
            raise BadRequest(f"'scale' must be a number in (0, {MAX_SCALE}]")
        payload = {
            "op": op,
            "benchmark": benchmark.lower(),
            "scale": float(scale),
        }
        if tune_block is not None:
            payload["tune"] = tune_block
        else:
            payload["scheme"] = scheme_json
        fingerprint = digest(
            "service", op, "benchmark", benchmark.lower(),
            repr(float(scale)), work_fp,
        )
        return ServiceJob(op, fingerprint, payload)

    if not isinstance(kernel_text, str):
        raise BadRequest("'kernel' must be a string of IR text")
    if len(kernel_text) > MAX_KERNEL_TEXT:
        raise BadRequest(
            f"kernel text exceeds {MAX_KERNEL_TEXT} characters"
        )
    if "scale" in body:
        raise BadRequest("'scale' applies only to benchmark requests")
    if op == "allocate" and "warps" in body:
        # Allocation is static: warps would fragment the dedup key
        # without changing the result.
        raise BadRequest("'warps' applies only to evaluate requests")
    kernel_fp, warps = _parse_kernel_request(kernel_text, body.get("warps"))
    payload = {
        "op": op,
        "kernel": kernel_text,
    }
    if tune_block is not None:
        payload["tune"] = tune_block
    else:
        payload["scheme"] = scheme_json
    parts = ["service", op, "kernel", kernel_fp, work_fp]
    if op in ("evaluate", "tune"):
        payload["warps"] = warps
        parts.append(json_fingerprint(warps))
    return ServiceJob(op, digest(*parts), payload)


def _parse_kernel_request(
    kernel_text: str, warps_json: Any
) -> Tuple[str, List[Dict[str, Any]]]:
    """Parse the kernel for validation + fingerprinting.

    The parsed kernel is discarded — workers re-parse from the text —
    but parsing here means malformed requests fail with 400 before
    anything is queued, and the fingerprint is the *content*
    fingerprint, so re-spellings of one kernel deduplicate.  Syntax
    errors, bad register names and structural faults are all
    ``ValueError`` subclasses.
    """
    try:
        kernels = parse_kernels(kernel_text)
    except ValueError as error:
        raise ParseError(str(error)) from None
    if len(kernels) != 1:
        raise ParseError(
            f"expected exactly 1 kernel, found {len(kernels)}"
        )
    warps = canonical_warps(warps_json)
    return kernels[0].content_fingerprint(), warps
