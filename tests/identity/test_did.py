"""Tests for DID syntax and DID documents."""

import pytest

from repro.identity.did import (
    LABELER_SERVICE_ID,
    PDS_SERVICE_ID,
    DidDocument,
    DidError,
    ServiceEndpoint,
    did_method,
    did_web_to_fqdn,
    is_valid_did,
)
from repro.identity.plc import PlcDirectory
from repro.identity.resolver import DidResolver
from repro.netsim.web import WELL_KNOWN_DID_JSON, WebHostRegistry


class TestDidSyntax:
    def test_valid_plc(self):
        assert is_valid_did("did:plc:ewvi7nxzyoun6zhxrhs64oiz")

    def test_plc_suffix_must_be_24_base32_chars(self):
        assert not is_valid_did("did:plc:short")
        assert not is_valid_did("did:plc:" + "A" * 24)  # uppercase not allowed

    def test_valid_web(self):
        assert is_valid_did("did:web:example.com")

    def test_unknown_method(self):
        assert not is_valid_did("did:ion:something")

    def test_did_method(self):
        assert did_method("did:web:example.com") == "web"
        with pytest.raises(DidError):
            did_method("not-a-did")

    def test_did_web_to_fqdn(self):
        assert did_web_to_fqdn("did:web:Example.COM") == "example.com"

    def test_did_web_path_rejected(self):
        with pytest.raises(DidError):
            did_web_to_fqdn("did:web:example.com:user:alice")


class TestDidDocument:
    def make_doc(self):
        doc = DidDocument(
            did="did:plc:ewvi7nxzyoun6zhxrhs64oiz",
            handle="alice.bsky.social",
            signing_key="did:key:zQ3shokFTS3brHcDQrn82RUDfCZESWL1ZdCEJwekUDPQiYBme",
        )
        doc.set_service(
            ServiceEndpoint(PDS_SERVICE_ID, "AtprotoPersonalDataServer", "https://pds.test")
        )
        return doc

    def test_invalid_did_rejected(self):
        with pytest.raises(DidError):
            DidDocument(did="nope")

    def test_also_known_as(self):
        assert self.make_doc().also_known_as == ["at://alice.bsky.social"]

    def test_pds_endpoint(self):
        assert self.make_doc().pds_endpoint == "https://pds.test"

    def test_labeler_endpoint_absent(self):
        assert self.make_doc().labeler_endpoint is None

    def test_set_service_replaces(self):
        doc = self.make_doc()
        doc.set_service(
            ServiceEndpoint(PDS_SERVICE_ID, "AtprotoPersonalDataServer", "https://pds2.test")
        )
        assert doc.pds_endpoint == "https://pds2.test"
        assert len(doc.services) == 1

    def test_labeler_service(self):
        doc = self.make_doc()
        doc.set_service(ServiceEndpoint(LABELER_SERVICE_ID, "AtprotoLabeler", "https://lab.test"))
        assert doc.labeler_endpoint == "https://lab.test"

    def test_json_round_trip(self):
        doc = self.make_doc()
        restored = DidDocument.from_json(doc.to_json())
        assert restored.did == doc.did
        assert restored.handle == doc.handle
        assert restored.pds_endpoint == doc.pds_endpoint
        assert restored.signing_key == doc.signing_key

    def test_from_json_requires_id(self):
        with pytest.raises(DidError):
            DidDocument.from_json({"alsoKnownAs": []})


WEB_DID = "did:web:odd.example"
PDS_ENTRY = {
    "id": "#atproto_pds",
    "type": "AtprotoPersonalDataServer",
    "serviceEndpoint": "https://pds.test",
}


@pytest.mark.parametrize(
    "document",
    [
        {"id": WEB_DID, "verificationMethod": ["x"]},
        {"id": WEB_DID, "service": ["x"]},
        {"id": WEB_DID, "service": PDS_ENTRY},
        {"id": WEB_DID, "alsoKnownAs": 5},
        {"id": WEB_DID, "service": [dict(PDS_ENTRY, id=5)]},
        [{"id": WEB_DID}],
    ],
    ids=["method-not-object", "service-not-object", "service-not-list", "aliases-not-list",
         "service-id-not-string", "top-level-list"],
)
def test_wrong_shape_did_web_document_resolves_to_none(document):
    # Well-formed JSON of the wrong shape is no DID document; the resolver
    # must say so instead of raising out of the DID-document crawl.
    web = WebHostRegistry()
    web.serve_json("odd.example", WELL_KNOWN_DID_JSON, document)
    assert DidResolver(PlcDirectory(), web).resolve(WEB_DID) is None


@pytest.mark.parametrize(
    "doc",
    [
        DidDocument(did=WEB_DID),
        DidDocument(did=WEB_DID, handle="odd.example", signing_key="did:key:zQ3shokFTS3brHcDQ"),
        DidDocument(
            did="did:plc:ewvi7nxzyoun6zhxrhs64oiz",
            handle="alice.bsky.social",
            services=[
                ServiceEndpoint(PDS_SERVICE_ID, "AtprotoPersonalDataServer", "https://pds.test"),
                ServiceEndpoint(LABELER_SERVICE_ID, "AtprotoLabeler", "https://lab.test"),
            ],
        ),
    ],
    ids=["bare", "handle-and-key", "two-services"],
)
def test_json_round_trip_is_exact(doc):
    rendered = doc.to_json()
    assert DidDocument.from_json(rendered) == doc
    assert DidDocument.from_json(rendered).to_json() == rendered
