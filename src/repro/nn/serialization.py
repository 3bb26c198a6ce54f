"""Model parameter serialisation and integrity digests.

The vendor/user validation scheme (Section III) releases the IP through an
*unsecure* distribution channel, so this module provides:

* save/load of model parameters to ``.npz`` files (every ``.npz`` read in
  ``repro`` goes through :func:`read_npz`), and
* a deterministic digest over the parameter values, used by the test suite
  and the validation harness to assert that a model copy was (or was not)
  modified.  Note that in the paper's threat model the *user cannot compute
  this digest* — they only see the black-box IP — which is exactly why
  functional tests are needed; the digest here is an experimental-harness
  convenience, not part of the defence.
"""

from __future__ import annotations

import hashlib
import json
import threading
import zipfile
import zlib
from pathlib import Path
from typing import Dict, Iterable, Optional, Union

import numpy as np

from repro.nn.model import Sequential

PathLike = Union[str, Path]

#: serialises ``.npz`` reads across threads: numpy parses every array header
#: with ``ast.literal_eval``, and CPython 3.11 can fail concurrent compiles
#: with "AST constructor recursion depth mismatch" (seen as HTTP 500s when
#: serve worker threads loaded packages at the same time)
_NPZ_LOCK = threading.Lock()

#: what numpy and zipfile raise on a truncated, corrupted or non-``.npz`` file
_CORRUPT_NPZ_ERRORS = (
    OSError,
    EOFError,
    ValueError,
    LookupError,
    RuntimeError,
    TypeError,
    zipfile.BadZipFile,
    zlib.error,
)


def read_npz(path: PathLike, names: Optional[Iterable[str]] = None) -> Dict[str, np.ndarray]:
    """Read arrays from an ``.npz`` archive under a process-wide lock.

    Returns every array, or only those of ``names`` that the archive holds.
    A missing file raises :class:`FileNotFoundError`; a file that is not a
    readable archive (truncated, corrupted) raises :class:`ValueError` naming
    the path.
    """
    try:
        with _NPZ_LOCK, np.load(path) as data:
            wanted = data.files if names is None else [n for n in names if n in data.files]
            return {name: data[name] for name in wanted}
    except FileNotFoundError:
        raise
    except _CORRUPT_NPZ_ERRORS as exc:
        raise ValueError(
            f"{path} is not a readable .npz archive ({type(exc).__name__}: {exc})"
        ) from exc


def parameter_digest(model: Sequential, precision: int = 12) -> str:
    """Deterministic SHA-256 digest of every parameter value.

    Values are rounded to ``precision`` decimals before hashing so that the
    digest is stable across platforms with differing extended-precision
    behaviour, while still changing for any perturbation of practical size.
    """
    hasher = hashlib.sha256()
    for param in model.parameters():
        hasher.update(param.name.encode("utf-8"))
        rounded = np.round(param.value, precision)
        # normalise -0.0 to 0.0 so the digest does not depend on signed zeros
        rounded = rounded + 0.0
        hasher.update(rounded.tobytes())
    return hasher.hexdigest()


def save_model(model: Sequential, path: PathLike) -> Path:
    """Save model parameters and metadata to a ``.npz`` file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    state = model.state_dict()
    meta = {
        "name": model.name,
        "input_shape": list(model.input_shape or ()),
        "digest": parameter_digest(model),
    }
    np.savez(path, __meta__=np.frombuffer(json.dumps(meta).encode("utf-8"), dtype=np.uint8), **state)
    return path


def load_parameters(path: PathLike) -> Dict[str, np.ndarray]:
    """Load the raw parameter mapping saved by :func:`save_model`."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"model file not found: {path}")
    return {k: v for k, v in read_npz(path).items() if k != "__meta__"}


def load_metadata(path: PathLike) -> Dict[str, object]:
    """Load the metadata blob saved by :func:`save_model`."""
    path = Path(path)
    arrays = read_npz(path, names=("__meta__",))
    if "__meta__" not in arrays:
        raise ValueError(f"{path} does not contain model metadata")
    return json.loads(bytes(arrays["__meta__"].tobytes()).decode("utf-8"))


def load_model_into(model: Sequential, path: PathLike, verify_digest: bool = True) -> Sequential:
    """Load parameters from ``path`` into an already-built ``model``.

    With ``verify_digest=True`` (default) the loaded parameters are re-hashed
    and compared with the digest stored at save time, catching corrupted or
    tampered files.
    """
    state = load_parameters(path)
    model.load_state_dict(state)
    if verify_digest:
        meta = load_metadata(path)
        expected = meta.get("digest")
        actual = parameter_digest(model)
        if expected != actual:
            raise ValueError(
                f"parameter digest mismatch for {path}: file may be corrupted "
                f"or tampered (expected {expected}, got {actual})"
            )
    return model


__all__ = [
    "parameter_digest",
    "save_model",
    "load_parameters",
    "load_metadata",
    "load_model_into",
    "read_npz",
]
