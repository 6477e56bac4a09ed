"""Closed-loop item runner, correctness gate and summary statistics.

One item samples an instance and runs the pipeline on it.  ``run_item``
times the item, then checks its outputs outside the timed region:

* every oracle verdict must be ``sound``;
* every certificate must validate against ``solgeo.schemas``;
* every certificate's ``instance_sha256`` must equal this module's own
  SHA-256 of the instance the item passed in, computed with an encoder
  written here rather than ``solgeo.jsonio``, so a change to the
  program's hashing cannot vouch for itself.

An item fails if it raises, if a check fails, or if the check itself
raises; failed items are counted, never dropped.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import jsonschema

from solgeo import schemas


@dataclass
class Output:
    """What one item produced, for the correctness gate.

    ``certificates`` pairs each certificate document with a zero-argument
    callable returning the document of the instance it certifies; the
    callable runs after the timer stops.  ``facts`` are named sanity
    checks on results that are not certificates.
    """

    certificates: list[tuple[dict, Callable[[], dict]]] = field(default_factory=list)
    verdicts: list[str] = field(default_factory=list)
    facts: list[tuple[str, bool]] = field(default_factory=list)


@dataclass(frozen=True)
class ItemType:
    """One entry of a workload's rotation."""

    name: str
    run: Callable[[int], Output]


@dataclass
class ItemRecord:
    kind: str
    index: int
    seconds: float
    failures: list[str]
    certificate_texts: list[str] = field(default_factory=list)
    nonfallback: int = 0
    blocks: int = 0
    blocks_fallback: int = 0

    @property
    def failed(self) -> bool:
        return bool(self.failures)


def canonical(obj: Any) -> str:
    """Canonical JSON: sorted keys, no whitespace, floats with 17
    significant digits and integral floats as ``x.0``."""
    if obj is None or isinstance(obj, bool):
        return json.dumps(obj)
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r}")
        if obj == int(obj) and abs(obj) < 1e16:
            return f"{obj:.1f}"
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, dict):
        return "{" + ",".join(
            json.dumps(key, ensure_ascii=False) + ":" + canonical(obj[key])
            for key in sorted(obj)
        ) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(canonical, obj)) + "]"
    if hasattr(obj, "item"):  # numpy scalars
        return canonical(obj.item())
    raise TypeError(f"cannot encode {type(obj).__name__}")


def sha256_hex(doc: Any) -> str:
    return hashlib.sha256(canonical(doc).encode("utf-8")).hexdigest()


def item_seed(run_seed: int, index: int) -> int:
    """Instance seed of the item at ``index`` of a run; the warm-up item
    uses index -1.  Seeds never repeat while a run has under a million
    items."""
    return run_seed * 1_000_000 + index + 1


def check_output(out: Output, record: ItemRecord) -> None:
    """Apply the correctness gate to ``out``, filling in ``record``."""
    record.failures += [f"oracle verdict {v!r}" for v in out.verdicts if v != "sound"]
    record.failures += [f"check failed: {name}" for name, ok in out.facts if not ok]
    for doc, instance_doc in out.certificates:
        text = canonical(doc)
        parsed = json.loads(text)
        kind = parsed.get("kind")
        try:
            jsonschema.validate(parsed, schemas.schema_for(parsed))
        except jsonschema.ValidationError as exc:
            record.failures.append(f"{kind} certificate fails its schema: {exc.message}")
        expected = sha256_hex(instance_doc())
        if parsed.get("instance_sha256") != expected:
            record.failures.append(f"{kind} certificate is bound to another instance")
        record.certificate_texts.append(text)
        record.nonfallback += parsed.get("fallback") is False
        if kind == "count":
            trace = parsed.get("recursion_trace", [])
            record.blocks += len(trace)
            record.blocks_fallback += sum(1 for entry in trace if entry["fallback"])


def run_item(item: ItemType, run_seed: int, index: int, tracer=None) -> ItemRecord:
    """Run and check one item; an exception in either counts as a failure."""
    seed = item_seed(run_seed, index)
    if tracer is not None:
        tracer.begin_item(index, item.name)
    t0 = time.perf_counter()
    try:
        out = item.run(seed)
    except Exception as exc:  # the loop must go on; the item counts as failed
        record = ItemRecord(item.name, index, time.perf_counter() - t0,
                            [f"raised {type(exc).__name__}: {exc}"])
        out = None
    else:
        record = ItemRecord(item.name, index, time.perf_counter() - t0, [])
    finally:
        if tracer is not None:
            tracer.end_item()
    if out is not None:
        try:
            check_output(out, record)
        except Exception as exc:  # a check that cannot run is a failed check
            record.failures.append(f"check raised {type(exc).__name__}: {exc}")
    return record


def run_phase(
    items: list[ItemType], run_seed: int, rotations: int, tracer=None,
    between: Callable[[int], None] | None = None,
) -> tuple[list[ItemRecord], float]:
    """Closed loop with one caller: ``rotations`` whole rotations of
    ``items``.  A fixed count keeps the item mix, and so the rank behind
    each percentile, the same from run to run however fast the machine is.
    ``between(r)`` runs after rotation ``r`` (and with ``r = 0`` before the
    first), outside every item's timer; the returned wall time leaves it
    out."""
    records: list[ItemRecord] = []
    paused = 0.0
    start = time.perf_counter()
    for rotation in range(rotations + 1):
        if between is not None:
            t0 = time.perf_counter()
            between(rotation)
            paused += time.perf_counter() - t0
        if rotation == rotations:
            break
        for item in items:
            records.append(run_item(item, run_seed, len(records), tracer))
    return records, time.perf_counter() - start - paused


def tail_rank(count: int) -> tuple[int, int]:
    """The highest whole percentile with at least ten samples beyond it,
    as (percentile, 1-based nearest rank), but never below the median:
    with fewer than twenty samples the tail is reported as p50."""
    for pct in range(99, 50, -1):
        rank = math.ceil(pct * count / 100)
        if count - rank >= 10:
            return pct, rank
    return 50, math.ceil(count / 2)


@dataclass(frozen=True)
class Summary:
    attempted: int
    failed: int
    throughput: float
    p50: float
    tail: float
    tail_pct: int
    tail_samples: int
    nonfallback_ratio: float
    certificates: int

    @property
    def ok_ratio(self) -> float:
        return 1.0 - self.failed / self.attempted


def summarize(records: list[ItemRecord]) -> Summary:
    """End-to-end figures of a phase.  Throughput counts successful items
    per second of item time, so the caller's checks between items do not
    count against the program; latencies are nearest-rank percentiles over
    successful items."""
    if not records:
        raise ValueError("no items were run")
    ok = sorted(r.seconds for r in records if not r.failed)
    busy = sum(r.seconds for r in records)
    certs = sum(len(r.certificate_texts) for r in records)
    nonfallback = sum(r.nonfallback for r in records)
    if ok:
        pct, rank = tail_rank(len(ok))
        p50, tail = ok[math.ceil(len(ok) / 2) - 1], ok[rank - 1]
    else:
        pct, p50, tail = 100, 0.0, 0.0
    return Summary(
        attempted=len(records),
        failed=sum(r.failed for r in records),
        throughput=len(ok) / busy if busy > 0 else 0.0,
        p50=p50,
        tail=tail,
        tail_pct=pct,
        tail_samples=len(ok),
        nonfallback_ratio=nonfallback / certs if certs else 0.0,
        certificates=certs,
    )


def certificate_digest(records: list[ItemRecord]) -> str:
    """SHA-256 over the canonical bytes of every certificate, in order."""
    h = hashlib.sha256()
    for r in records:
        for text in r.certificate_texts:
            h.update(text.encode("utf-8"))
            h.update(b"\n")
    return h.hexdigest()
