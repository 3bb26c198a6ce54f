"""The versioned wire envelope shared by the HTTP and in-process paths.

Every request the façade accepts — :class:`~repro.api.requests.ReleaseRequest`,
:class:`~repro.api.requests.ValidateRequest`,
:class:`~repro.api.requests.SweepRequest` — has exactly one serialization
contract, used identically by :mod:`repro.serve`'s HTTP endpoint, the
in-process :class:`~repro.serve.client.AsyncClient`, and plain
:meth:`repro.api.Session.validate` calls handed a wire dict::

    {"schema_version": 1, "kind": "validate", "body": {"package": "...", ...}}

``schema_version`` is explicit so old clients keep working across additive
schema growth: a server reads every version up to its own
:data:`WIRE_SCHEMA_VERSION` and rejects newer ones with a clear error
instead of mis-parsing.  ``kind`` names the request table (the same
``_TABLE`` token the TOML loaders use), so an envelope can never be replayed
against the wrong operation.  ``body`` holds exactly the request's
dataclass fields — the :class:`~repro.api.config.TableSerde` dict form —
which keeps the wire schema pinned by the committed API-surface snapshot.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: current wire schema version written by every ``to_wire()``
WIRE_SCHEMA_VERSION = 1


def envelope(kind: str, body: Dict[str, object]) -> Dict[str, object]:
    """Wrap a request/result body dict in a versioned wire envelope."""
    return {"schema_version": WIRE_SCHEMA_VERSION, "kind": kind, "body": dict(body)}


def is_wire(data: object) -> bool:
    """Whether ``data`` looks like a wire envelope (vs a bare field dict)."""
    return isinstance(data, dict) and "schema_version" in data


def open_envelope(
    data: Dict[str, object], expected_kind: Optional[str] = None
) -> Tuple[int, str, Dict[str, object]]:
    """Validate an envelope and return ``(schema_version, kind, body)``.

    Raises :class:`ValueError` on a missing/unsupported ``schema_version``,
    a missing ``kind``, a ``kind`` different from ``expected_kind`` (when
    given), or a non-dict ``body`` — the error messages are stable enough to
    surface verbatim as HTTP 400 bodies.
    """
    if not isinstance(data, dict):
        raise ValueError(f"wire envelope must be a dict, got {type(data).__name__}")
    try:
        version = int(data["schema_version"])  # type: ignore[arg-type]
    except KeyError:
        raise ValueError("wire envelope is missing 'schema_version'") from None
    except (TypeError, ValueError, OverflowError):
        # OverflowError: JSON's ``Infinity`` parses to a float int() rejects
        raise ValueError(
            f"wire envelope 'schema_version' must be an integer, got "
            f"{data['schema_version']!r}"
        ) from None
    if not 1 <= version <= WIRE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported wire schema_version {version}; this build reads "
            f"versions 1..{WIRE_SCHEMA_VERSION}"
        )
    kind = data.get("kind")
    if not isinstance(kind, str) or not kind:
        raise ValueError("wire envelope is missing 'kind'")
    if expected_kind is not None and kind != expected_kind:
        raise ValueError(
            f"wire envelope kind {kind!r} does not match the expected "
            f"{expected_kind!r}"
        )
    body = data.get("body", {})
    if not isinstance(body, dict):
        raise ValueError(f"wire envelope 'body' must be a dict, got {type(body).__name__}")
    return version, kind, body


class WireSerde:
    """``to_wire()`` / ``from_wire()`` for the façade request dataclasses.

    Mixed into :class:`~repro.api.config.TableSerde` subclasses: the
    envelope ``kind`` is the class's ``_TABLE`` token and the ``body`` is
    its ``to_dict()`` form, so the wire contract and the TOML contract can
    never diverge.  ``coerce`` (via :meth:`TableSerde.coerce`) recognises
    envelopes transparently, which is how :meth:`repro.api.Session.validate`
    and the HTTP layer share one deserialization path.
    """

    _TABLE = "config"

    def to_wire(self) -> Dict[str, object]:
        """This request as a versioned wire envelope."""
        return envelope(self._TABLE, self.to_dict())  # type: ignore[attr-defined]

    @classmethod
    def from_wire(cls, data: Dict[str, object]):
        """Rebuild (and validate) a request from its wire envelope."""
        _version, _kind, body = open_envelope(data, expected_kind=cls._TABLE)
        instance = cls.from_dict(body)  # type: ignore[attr-defined]
        instance.validate()
        return instance


__all__ = ["WIRE_SCHEMA_VERSION", "WireSerde", "envelope", "is_wire", "open_envelope"]
