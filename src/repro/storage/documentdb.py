"""Keyed JSON document store standing in for Cosmos DB.

The Seagull pipeline stores prediction results, accuracy evaluations, model
records and scheduling decisions in Cosmos DB (Section 2.2).  This module
provides a small in-process document database with named containers,
upserts, point reads and predicate queries -- the subset of Cosmos DB
behaviour the pipeline actually depends on.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping
from dataclasses import dataclass, field
from typing import Any


class ContainerNotFoundError(KeyError):
    """Raised when an operation references a container that was never created."""


class DocumentNotFoundError(KeyError):
    """Raised on a point read of a document id that does not exist."""


class DocumentConflictError(ValueError):
    """Raised when inserting a document whose id already exists (without upsert)."""


@dataclass(frozen=True)
class Document:
    """A stored document: an id, a body and a monotonically increasing version."""

    id: str
    body: Mapping[str, Any]
    version: int = 1


@dataclass
class _Container:
    name: str
    documents: dict[str, Document] = field(default_factory=dict)


class DocumentStore:
    """An in-process document database (nothing is written to disk)."""

    def __init__(self) -> None:
        self._containers: dict[str, _Container] = {}

    # ------------------------------------------------------------------ #
    # Container management
    # ------------------------------------------------------------------ #

    def create_container(self, name: str, exist_ok: bool = True) -> None:
        """Create a named container."""
        if name in self._containers:
            if exist_ok:
                return
            raise DocumentConflictError(f"container {name!r} already exists")
        self._containers[name] = _Container(name)

    def list_containers(self) -> list[str]:
        """Return the names of all containers."""
        return sorted(self._containers)

    def drop_container(self, name: str) -> None:
        """Remove a container and all of its documents."""
        self._containers.pop(name, None)

    def _container(self, name: str) -> _Container:
        try:
            return self._containers[name]
        except KeyError as exc:
            raise ContainerNotFoundError(f"container {name!r} does not exist") from exc

    # ------------------------------------------------------------------ #
    # Document operations
    # ------------------------------------------------------------------ #

    def insert(self, container: str, doc_id: str, body: Mapping[str, Any]) -> Document:
        """Insert a new document; fails if the id already exists."""
        cont = self._container(container)
        if doc_id in cont.documents:
            raise DocumentConflictError(
                f"document {doc_id!r} already exists in container {container!r}"
            )
        document = Document(id=doc_id, body=dict(body), version=1)
        cont.documents[doc_id] = document
        return document

    def upsert(self, container: str, doc_id: str, body: Mapping[str, Any]) -> Document:
        """Insert or replace a document, bumping its version on replace."""
        cont = self._container(container)
        existing = cont.documents.get(doc_id)
        version = 1 if existing is None else existing.version + 1
        document = Document(id=doc_id, body=dict(body), version=version)
        cont.documents[doc_id] = document
        return document

    def get(self, container: str, doc_id: str) -> Document:
        """Point-read a document; raises :class:`DocumentNotFoundError`."""
        cont = self._container(container)
        try:
            return cont.documents[doc_id]
        except KeyError as exc:
            raise DocumentNotFoundError(
                f"document {doc_id!r} not found in container {container!r}"
            ) from exc

    def try_get(self, container: str, doc_id: str) -> Document | None:
        """Point-read returning ``None`` instead of raising when absent."""
        cont = self._container(container)
        return cont.documents.get(doc_id)

    def delete(self, container: str, doc_id: str) -> bool:
        """Delete a document; returns whether it existed."""
        cont = self._container(container)
        return cont.documents.pop(doc_id, None) is not None

    def query(
        self,
        container: str,
        predicate: Callable[[Mapping[str, Any]], bool] | None = None,
    ) -> Iterator[Document]:
        """Yield documents whose body satisfies ``predicate`` (all when ``None``)."""
        cont = self._container(container)
        for document in cont.documents.values():
            if predicate is None or predicate(document.body):
                yield document

    def count(self, container: str) -> int:
        """Number of documents in a container."""
        return len(self._container(container).documents)
