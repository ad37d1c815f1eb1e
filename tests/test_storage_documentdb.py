"""Unit tests for the document store."""

import pytest

from repro.storage.documentdb import (
    ContainerNotFoundError,
    DocumentConflictError,
    DocumentNotFoundError,
    DocumentStore,
)


@pytest.fixture
def store() -> DocumentStore:
    db = DocumentStore()
    db.create_container("results")
    return db


class TestContainers:
    def test_create_and_list(self, store):
        store.create_container("models")
        assert store.list_containers() == ["models", "results"]

    def test_create_existing_is_idempotent(self, store):
        store.create_container("results")
        assert store.list_containers() == ["results"]

    def test_create_existing_strict_raises(self, store):
        with pytest.raises(DocumentConflictError):
            store.create_container("results", exist_ok=False)

    def test_drop_container(self, store):
        store.drop_container("results")
        assert store.list_containers() == []

    def test_unknown_container_raises(self, store):
        with pytest.raises(ContainerNotFoundError):
            store.get("nope", "id")


class TestDocuments:
    def test_insert_and_get(self, store):
        store.insert("results", "a", {"value": 1})
        assert store.get("results", "a").body["value"] == 1

    def test_insert_duplicate_raises(self, store):
        store.insert("results", "a", {})
        with pytest.raises(DocumentConflictError):
            store.insert("results", "a", {})

    def test_upsert_bumps_version(self, store):
        first = store.upsert("results", "a", {"v": 1})
        second = store.upsert("results", "a", {"v": 2})
        assert first.version == 1
        assert second.version == 2
        assert store.get("results", "a").body["v"] == 2

    def test_get_missing_raises(self, store):
        with pytest.raises(DocumentNotFoundError):
            store.get("results", "missing")

    def test_try_get_missing_returns_none(self, store):
        assert store.try_get("results", "missing") is None

    def test_delete(self, store):
        store.insert("results", "a", {})
        assert store.delete("results", "a") is True
        assert store.delete("results", "a") is False

    def test_query_with_predicate(self, store):
        store.insert("results", "a", {"region": "r0"})
        store.insert("results", "b", {"region": "r1"})
        matches = list(store.query("results", lambda body: body["region"] == "r1"))
        assert [doc.id for doc in matches] == ["b"]

    def test_query_all(self, store):
        store.insert("results", "a", {})
        store.insert("results", "b", {})
        assert store.count("results") == 2
        assert len(list(store.query("results"))) == 2
