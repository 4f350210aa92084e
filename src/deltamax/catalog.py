"""Named function catalog.

Ships the worked examples (square, exp_norm, log_norm, identity) together
with their closed-form optimal deltas, which the generic backends must
reproduce; users can register further entries, and entries serialize to a
one-line-per-entry `name|expression|domain` manifest for the CLI.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from typing import Callable, Iterable

from .domaintext import format_domain, parse_domain
from .errors import DomainParseError, InvalidArgument, UnknownCatalogEntry
from .model import CatalogFn, DomainSpec, ExpressionFn, FunctionSpec


@dataclass(frozen=True)
class CatalogEntry:
    """A named function, its natural domain and (when known) its optimal
    delta in closed form.

    `closed_form_delta(p, eps)` takes the scalar position for 1-d entries
    and the radius ||p|| for radial entries.
    """

    name: str
    function: FunctionSpec
    source: str
    domain: DomainSpec
    closed_form_delta: Callable[[float, float], float] | None = None

    def manifest_line(self) -> str:
        return f"{self.name}|{self.source}|{format_domain(self.domain)}"


_LOCK = threading.Lock()
_REGISTRY: dict[str, CatalogEntry] = {}


def _make(name: str, source: str, domain: DomainSpec,
          closed_form: Callable[[float, float], float] | None,
          dim: int = 1) -> CatalogEntry:
    # Every entry must load back from its manifest line as it is; the
    # flat grammar cannot write, e.g., a box open on some axes only.
    if "|" in name or "|" in source:
        raise InvalidArgument("catalog names/expressions cannot contain '|'")
    if not name or name != name.strip() or name.startswith("#"):
        raise InvalidArgument(f"catalog name {name!r} is empty, starts with '#' "
                              "or has surrounding whitespace")
    if source != source.strip():  # load_manifest strips every field
        raise InvalidArgument(f"catalog expression {source!r} has surrounding whitespace")
    # The manifest is read line by line (str.splitlines, which also breaks
    # at '\r' and other separators): the fields must not span two lines.
    if len(f"{name}|{source}|".splitlines()) > 1:
        raise InvalidArgument("catalog names/expressions cannot contain a line break")
    text = format_domain(domain)
    if parse_domain(text) != domain:
        raise DomainParseError(f"{text!r} does not load back as {domain!r}")
    fn = ExpressionFn.parse(source, dim=dim)
    return CatalogEntry(
        name=name,
        function=CatalogFn(inner=fn, domain=domain),
        source=source,
        domain=domain,
        closed_form_delta=closed_form,
    )


def _builtin_entries() -> list[CatalogEntry]:
    reals = DomainSpec.interval(-math.inf, math.inf)
    plane = DomainSpec.ball((0.0, 0.0), math.inf)
    punctured_plane = DomainSpec.annulus((0.0, 0.0), 0.0, math.inf, open_inner=True)
    # Closed forms are written without cancellation, so that they are
    # accurate to a few ulps and can be checked against a strict bracket:
    # sqrt(p^2+eps)-|p|, eps, ln(e^||p||+eps)-||p|| and ||p||(1-e^-eps).
    return [
        _make("square", "x^2", reals,
              lambda p, eps: eps / (math.sqrt(p * p + eps) + abs(p))),
        _make("identity", "x", reals, lambda p, eps: eps),
        _make("exp_norm", "exp(r)", plane,
              lambda t, eps: math.log1p(eps * math.exp(-t)), dim=2),
        _make("log_norm", "ln(r)", punctured_plane,
              lambda t, eps: -t * math.expm1(-eps), dim=2),
    ]


def _ensure_builtins():
    if not _REGISTRY:
        for entry in _builtin_entries():
            _REGISTRY[entry.name] = entry


def catalog_lookup(name: str) -> CatalogEntry:
    with _LOCK:
        _ensure_builtins()
        try:
            return _REGISTRY[name]
        except KeyError:
            known = ", ".join(sorted(_REGISTRY))
            raise UnknownCatalogEntry(f"no catalog entry {name!r} (known: {known})") from None


def catalog_names() -> list[str]:
    with _LOCK:
        _ensure_builtins()
        return list(_REGISTRY)


def register(name: str, source: str, domain: DomainSpec,
             closed_form_delta: Callable[[float, float], float] | None = None
             ) -> CatalogEntry:
    """Register (or replace) a user entry and return it."""
    entry = _make(name, source, domain, closed_form_delta, dim=domain.dimension)
    with _LOCK:
        _ensure_builtins()
        _REGISTRY[name] = entry
    return entry


def serialize_manifest(entries: Iterable[CatalogEntry] | None = None) -> str:
    if entries is None:
        with _LOCK:
            _ensure_builtins()
            entries = list(_REGISTRY.values())
    return "\n".join(e.manifest_line() for e in entries) + "\n"


def load_manifest(text: str) -> list[CatalogEntry]:
    """Register every `name|expression|domain` line; returns the new entries."""
    out = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split("|")
        if len(fields) != 3:
            raise DomainParseError(f"manifest line {lineno}: expected name|expression|domain")
        name, source, domain_text = (f.strip() for f in fields)
        out.append(register(name, source, parse_domain(domain_text)))
    return out


def resolve_function(text: str, dim: int | None = None) -> FunctionSpec:
    """CLI helper: a catalog name resolves to its entry's function (whose
    natural domain is the entry's), anything else is parsed as an
    expression (an expression in r is radial in `dim`, default 2)."""
    with _LOCK:
        _ensure_builtins()
        entry = _REGISTRY.get(text)
    if entry is not None:
        return entry.function
    return ExpressionFn.parse(text, dim=2 if dim is None else dim)
