"""The unified, validated audit configuration.

Before this module, the audit's knobs were threaded three separate ways:
``ssco_audit``'s twelve keyword arguments, the internal
:class:`~repro.core.pipeline.AuditOptions` dataclass, and the CLI's flag
set — with no validation anywhere (a negative worker count silently
meant "serial", an out-of-range epoch cut was silently dropped deep in
the partitioner).  :class:`AuditConfig` is the one place all of them
meet:

* every knob, documented, with the same defaults as ``ssco_audit``;
* **hard validation** at construction: nonsensical values (negative
  ``workers``/``epoch_size``, unsorted ``epoch_cuts``, an unregistered
  ``backend``) raise :class:`ValueError` with a message naming the field
  — at the API boundary, not five frames deep in the pipeline;
* **serialization**: :meth:`to_json` / :meth:`from_json` (plain dicts)
  and :meth:`save` / :meth:`load` (files), so a deployment's audit
  configuration is a reviewable artifact (the CLI's ``--config
  audit.json``);
* **CLI binding**: :meth:`from_args` builds a config from an argparse
  namespace, layering explicit flags over an optional ``--config`` file.

:class:`AuditConfig` is the public face; the pipeline keeps consuming
the lenient :class:`~repro.core.pipeline.AuditOptions` internally
(:meth:`to_options` converts).  ``ssco_audit`` remains the
signature-compatible kwargs wrapper for one-shot use;
:class:`~repro.core.auditor.Auditor` takes an :class:`AuditConfig`.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

from repro.core.pipeline import AuditOptions
from repro.core.reexec import (
    DEFAULT_MAX_GROUP,
    default_backend,
    get_reexec_backend,
)


@dataclass(frozen=True)
class AuditConfig:
    """Every audit knob, validated at construction.

    Invalid values raise :class:`ValueError` immediately; an
    :class:`AuditConfig` that exists is safe to run.
    """

    #: Reject on in-group control-flow divergence (Figure 12 line 39)
    #: instead of demoting the group to per-request re-execution.
    strict: bool = True
    #: Read-query deduplication (§4.5).
    dedup: bool = True
    #: Multivalue collapse (§4.3) — ablation hook.
    collapse: bool = True
    #: Reject register reads with no logged write and no initial value.
    strict_registers: bool = False
    #: Chunk re-execution groups beyond this size (§4.7).
    max_group_size: int = DEFAULT_MAX_GROUP
    #: On accept, compact the versioned stores into the next epoch's
    #: trusted initial state (§4.5 migration).
    migrate: bool = False
    #: Worker processes for group re-execution; 1 means serial.
    workers: int = 1
    #: Above 1, audit epochs off the calling thread.  One-shot audits
    #: run epoch shards concurrently in a pool of this size (a
    #: redo-only state precompute materializes every epoch's initial
    #: state first); live sessions run the serial chain in one resident
    #: audit process while the caller ingests.  1 keeps the serial
    #: epoch chain.  Results are bit-identical to it either way.
    epoch_workers: int = 1
    #: Run epochs in worker *processes* (the default: one persistent
    #: pool per one-shot run, one audit process per live session);
    #: False keeps the older thread-based epoch driver.  Only consulted
    #: when ``epoch_workers > 1``; results are bit-identical either way.
    epoch_processes: bool = True
    #: Bound on in-flight epochs: how far the speculative redo-only
    #: prepass may run ahead of the slowest unfinished epoch audit, or
    #: how many slices a live session may have sent to its audit
    #: process unsettled (backpressure for follow/connect sessions).
    #: 0 means the default ``2 * epoch_workers``.
    prepass_depth: int = 0
    #: Shard the audit at quiescent cuts every ~N requests; 0 disables.
    epoch_size: int = 0
    #: Explicit cut positions (event indexes, e.g. the executor's epoch
    #: marks); overrides ``epoch_size`` when set.  Must be positive and
    #: strictly increasing.
    epoch_cuts: tuple[int, ...] | None = None
    #: Registered re-execution backend (``"accinterp"``, ``"interp"``,
    #: or anything added via ``register_reexec_backend``).  The default
    #: reads ``REPRO_BACKEND`` when the config is *constructed*, not
    #: when the module was imported.
    backend: str = dataclasses.field(default_factory=default_backend)
    #: Consult the static analyzer's divergence-hazard report
    #: (:func:`repro.lang.analysis.divergence_hazards`) during chunk
    #: planning: multi-request groups whose script is a known hazard are
    #: pre-demoted to singleton chunks instead of diverging at run time
    #: and being replayed one by one.  Only consulted by non-strict
    #: audits (strict treats divergence as a verdict); never changes
    #: produced bodies or verdicts.
    plan_hints: bool = False
    #: Audit a live stream from a remote publisher at ``HOST:PORT``
    #: (``repro audit --connect``) instead of a bundle file.
    connect: str | None = None
    #: Publish the recorded stream on ``HOST:PORT`` (``repro serve
    #: --listen``); port 0 binds an ephemeral port.
    listen: str | None = None
    #: Transport: bound on connecting + handshaking with the publisher
    #: (connection-refused is retried until it expires — the auditor
    #: may start before the recorder).  ``None`` waits forever.
    net_connect_timeout: float | None = 5.0
    #: Transport: on the audit side, give up after this long without a
    #: frame (the same role as the file reader's follow
    #: ``idle_timeout``); on the serve side, drop a subscriber that
    #: lags this long (it reconnects and resumes from the spool).
    #: ``None`` waits / blocks indefinitely.
    net_idle_timeout: float | None = 30.0
    #: Transport: resume attempts after a mid-stream disconnect before
    #: the audit fails (0 disables resume).
    net_retries: int = 3
    #: Transport (serve side): records per ``RECORD_BATCH`` wire frame;
    #: 1 reproduces the unbatched (one RECORD per frame) wire exactly.
    batch_records: int = 64
    #: Transport (serve side): flush the pending batch once its JSON
    #: payload reaches this many bytes, whatever the record count.
    batch_bytes: int = 256 * 1024
    #: Fleet: listen for ``repro worker`` daemons on ``HOST:PORT`` and
    #: fan epoch work units out to them (``repro audit
    #: --fleet-listen``); port 0 binds an ephemeral port.  ``None``
    #: keeps every epoch on this host.  Composes with ``connect``: one
    #: auditor can drive N worker hosts against one recorder.
    fleet_listen: str | None = None
    #: Fleet: wait for this many registered workers before dispatching
    #: the first epoch (0 dispatches to whoever has joined; with no
    #: workers at all, epochs run locally).
    fleet_min_workers: int = 0
    #: Fleet: overall per-epoch deadline on a worker; a straggler past
    #: it is dropped and its epoch re-dispatched.  ``None`` relies on
    #: heartbeat-miss detection alone.
    fleet_task_timeout: float | None = None
    #: Fleet: dispatch each epoch to this many workers and cross-check
    #: their verdicts (1 disables; a disagreement re-runs the epoch
    #: locally — the local chain arbitrates).
    fleet_redundancy: int = 1

    def __post_init__(self):
        if self.epoch_cuts is not None and not isinstance(
            self.epoch_cuts, tuple
        ):
            object.__setattr__(self, "epoch_cuts",
                               tuple(self.epoch_cuts))
        self.validate()

    # -- validation -------------------------------------------------------

    def validate(self) -> AuditConfig:
        """Raise :class:`ValueError` on any nonsensical knob value."""
        for flag in ("strict", "dedup", "collapse", "strict_registers",
                     "migrate", "epoch_processes", "plan_hints"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(
                    f"{flag} must be a bool, got "
                    f"{getattr(self, flag)!r}"
                )
        if not _is_int(self.workers) or self.workers < 1:
            raise ValueError(
                f"workers must be an integer >= 1, got {self.workers!r}"
            )
        if not _is_int(self.epoch_workers) or self.epoch_workers < 1:
            raise ValueError(
                f"epoch_workers must be an integer >= 1, got "
                f"{self.epoch_workers!r}"
            )
        if not _is_int(self.prepass_depth) or self.prepass_depth < 0:
            raise ValueError(
                f"prepass_depth must be an integer >= 0 (0 means "
                f"2 * epoch_workers), got {self.prepass_depth!r}"
            )
        if not _is_int(self.epoch_size) or self.epoch_size < 0:
            raise ValueError(
                f"epoch_size must be an integer >= 0 (0 disables "
                f"sharding), got {self.epoch_size!r}"
            )
        if not _is_int(self.max_group_size) or self.max_group_size < 1:
            raise ValueError(
                f"max_group_size must be an integer >= 1, got "
                f"{self.max_group_size!r}"
            )
        if self.epoch_cuts is not None:
            previous = 0
            for cut in self.epoch_cuts:
                if not _is_int(cut) or cut <= 0:
                    raise ValueError(
                        f"epoch_cuts entries must be positive event "
                        f"indexes, got {cut!r}"
                    )
                if cut <= previous:
                    raise ValueError(
                        f"epoch_cuts must be strictly increasing, got "
                        f"{list(self.epoch_cuts)}"
                    )
                previous = cut
        get_reexec_backend(self.backend)  # unknown name -> ValueError
        # Imported lazily: the core layer has no hard dependency on the
        # transport package unless a net knob is actually used.
        for field, endpoint in (("connect", self.connect),
                                ("listen", self.listen),
                                ("fleet_listen", self.fleet_listen)):
            if endpoint is None:
                continue
            from repro.net.protocol import parse_endpoint

            try:
                _, port = parse_endpoint(endpoint)
            except ValueError as exc:
                raise ValueError(f"{field}: {exc}") from None
            if field == "connect" and port < 1:
                raise ValueError(
                    f"connect needs a real port (1-65535), got "
                    f"{endpoint!r}"
                )
        for field in ("net_connect_timeout", "net_idle_timeout",
                      "fleet_task_timeout"):
            value = getattr(self, field)
            if value is None:
                continue
            if (isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or value <= 0):
                raise ValueError(
                    f"{field} must be a positive number of seconds "
                    f"(or None to wait forever), got {value!r}"
                )
        if not _is_int(self.net_retries) or self.net_retries < 0:
            raise ValueError(
                f"net_retries must be an integer >= 0, got "
                f"{self.net_retries!r}"
            )
        for field in ("batch_records", "batch_bytes"):
            value = getattr(self, field)
            if not _is_int(value) or value < 1:
                raise ValueError(
                    f"{field} must be an integer >= 1, got {value!r}"
                )
        if not _is_int(self.fleet_min_workers) or self.fleet_min_workers < 0:
            raise ValueError(
                f"fleet_min_workers must be an integer >= 0, got "
                f"{self.fleet_min_workers!r}"
            )
        if not _is_int(self.fleet_redundancy) or self.fleet_redundancy < 1:
            raise ValueError(
                f"fleet_redundancy must be an integer >= 1 (1 disables "
                f"cross-checking), got {self.fleet_redundancy!r}"
            )
        return self

    def validate_for_trace(self, trace) -> AuditConfig:
        """Also check trace-dependent bounds: every explicit cut must
        fall inside the trace (cut ``i`` splits after event ``i-1``)."""
        if self.epoch_cuts:
            limit = len(trace)
            for cut in self.epoch_cuts:
                if cut >= limit:
                    raise ValueError(
                        f"epoch cut {cut} is out of range for a trace "
                        f"of {limit} events"
                    )
        return self

    # -- conversions ------------------------------------------------------

    def to_options(self) -> AuditOptions:
        """The pipeline-internal knob set this config denotes."""
        return AuditOptions(
            strict=self.strict,
            dedup=self.dedup,
            collapse=self.collapse,
            strict_registers=self.strict_registers,
            max_group_size=self.max_group_size,
            migrate=self.migrate,
            workers=self.workers,
            epoch_workers=self.epoch_workers,
            epoch_processes=self.epoch_processes,
            prepass_depth=self.prepass_depth,
            epoch_size=self.epoch_size,
            epoch_cuts=self.epoch_cuts,
            backend=self.backend,
            plan_hints=self.plan_hints,
            fleet_listen=self.fleet_listen,
            fleet_min_workers=self.fleet_min_workers,
            fleet_task_timeout=self.fleet_task_timeout,
            fleet_redundancy=self.fleet_redundancy,
        )

    @classmethod
    def from_options(cls, options: AuditOptions) -> AuditConfig:
        """Validated config from a (lenient) options object."""
        cuts = options.epoch_cuts
        return cls(
            strict=options.strict,
            dedup=options.dedup,
            collapse=options.collapse,
            strict_registers=options.strict_registers,
            max_group_size=options.max_group_size,
            migrate=options.migrate,
            workers=max(1, options.workers),
            epoch_workers=max(1, options.epoch_workers),
            epoch_processes=options.epoch_processes,
            prepass_depth=max(0, options.prepass_depth),
            epoch_size=options.epoch_size,
            epoch_cuts=tuple(cuts) if cuts is not None else None,
            backend=options.backend,
            plan_hints=options.plan_hints,
            fleet_listen=options.fleet_listen,
            fleet_min_workers=max(0, options.fleet_min_workers),
            fleet_task_timeout=options.fleet_task_timeout,
            fleet_redundancy=max(1, options.fleet_redundancy),
        )

    def replace(self, **changes) -> AuditConfig:
        """A copy with the given fields changed (re-validated)."""
        return dataclasses.replace(self, **changes)

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict[str, object]:
        """A plain-JSON dict (epoch_cuts as a list)."""
        data = dataclasses.asdict(self)
        if data["epoch_cuts"] is not None:
            data["epoch_cuts"] = list(data["epoch_cuts"])
        return data

    @classmethod
    def from_json(cls, data: dict[str, object]) -> AuditConfig:
        """Validated config from :meth:`to_json` output; unknown keys
        raise :class:`ValueError` (typos must not silently no-op)."""
        if not isinstance(data, dict):
            raise ValueError(
                f"audit config must be a JSON object, got "
                f"{type(data).__name__}"
            )
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown audit config keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(known))})"
            )
        kwargs = dict(data)
        if kwargs.get("epoch_cuts") is not None:
            kwargs["epoch_cuts"] = tuple(kwargs["epoch_cuts"])
        return cls(**kwargs)

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> AuditConfig:
        with open(path) as fh:
            return cls.from_json(json.load(fh))

    # -- CLI binding ------------------------------------------------------

    @classmethod
    def from_args(cls, args) -> AuditConfig:
        """Config from an argparse namespace.

        Layering: defaults, then the ``--config`` file (when given),
        then every flag the user supplied explicitly (the CLI registers
        the knobs with ``default=None`` so "not given" is detectable).
        ``args.workers`` must already be alias-resolved by the CLI
        (``--parallel`` / audit's ``--concurrency`` fold into it).
        """
        config = cls()
        if getattr(args, "config", None):
            config = cls.load(args.config)
        changes: dict[str, object] = {}
        for field in ("strict", "strict_registers", "max_group_size",
                      "workers", "epoch_workers", "prepass_depth",
                      "epoch_size", "backend", "migrate", "connect",
                      "listen", "net_connect_timeout",
                      "net_idle_timeout", "net_retries",
                      "batch_records", "batch_bytes",
                      "fleet_listen", "fleet_min_workers",
                      "fleet_task_timeout", "fleet_redundancy"):
            value = getattr(args, field, None)
            if value is not None:
                changes[field] = value
        if getattr(args, "no_dedup", None):
            changes["dedup"] = False
        if getattr(args, "plan_hints", None):
            changes["plan_hints"] = True
        if getattr(args, "epoch_threads", None):
            changes["epoch_processes"] = False
        if getattr(args, "no_collapse", None):
            changes["collapse"] = False
        cuts = getattr(args, "epoch_cuts", None)
        if cuts is not None:
            changes["epoch_cuts"] = tuple(cuts)
        return config.replace(**changes) if changes else config

    def describe(self) -> str:
        """One-line human summary (CLI banners)."""
        parts = [f"backend={self.backend}", f"workers={self.workers}"]
        if self.epoch_workers > 1:
            parts.append(f"epoch_workers={self.epoch_workers}")
            if not self.epoch_processes:
                parts.append("epoch-threads")
        if self.prepass_depth:
            parts.append(f"prepass_depth={self.prepass_depth}")
        if self.epoch_cuts:
            parts.append(f"epoch_cuts={list(self.epoch_cuts)}")
        elif self.epoch_size:
            parts.append(f"epoch_size={self.epoch_size}")
        if not self.strict:
            parts.append("no-strict")
        if not self.dedup:
            parts.append("no-dedup")
        if not self.collapse:
            parts.append("no-collapse")
        if self.strict_registers:
            parts.append("strict-registers")
        if self.plan_hints:
            parts.append("plan-hints")
        if self.max_group_size != DEFAULT_MAX_GROUP:
            parts.append(f"max_group={self.max_group_size}")
        if self.connect:
            parts.append(f"connect={self.connect}")
        if self.fleet_listen:
            parts.append(f"fleet_listen={self.fleet_listen}")
            if self.fleet_min_workers:
                parts.append(f"fleet_min_workers={self.fleet_min_workers}")
            if self.fleet_task_timeout is not None:
                parts.append(
                    f"fleet_task_timeout={self.fleet_task_timeout}")
            if self.fleet_redundancy > 1:
                parts.append(f"fleet_redundancy={self.fleet_redundancy}")
        if self.listen:
            parts.append(f"listen={self.listen}")
            if self.batch_records != 64:
                parts.append(f"batch_records={self.batch_records}")
            if self.batch_bytes != 256 * 1024:
                parts.append(f"batch_bytes={self.batch_bytes}")
        return " ".join(parts)


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def parse_epoch_cuts(text: str) -> tuple[int, ...]:
    """Parse the CLI's ``--epoch-cuts "100,200,350"`` into a tuple.

    Raises :class:`ValueError` on non-integers; ordering and positivity
    are checked by :class:`AuditConfig` itself.
    """
    parts = [part.strip() for part in text.split(",") if part.strip()]
    try:
        return tuple(int(part) for part in parts)
    except ValueError:
        raise ValueError(
            f"--epoch-cuts expects comma-separated event indexes, got "
            f"{text!r}"
        ) from None
