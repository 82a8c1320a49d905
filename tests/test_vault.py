import json

import pytest

from chaintrace.errors import (
    InsufficientShares,
    IntegrityFailure,
    TokenCollision,
    UnknownToken,
    VaultFormatError,
    VaultSealed,
)
from chaintrace.events import LogEvent
from chaintrace.secretshare import ShamirShare
from chaintrace.vault import PseudonymVault, create_vault


@pytest.fixture(scope="module")
def vault_and_shares():
    # RSA keygen is slow; one vault serves the whole module
    return create_vault(k=2, n=3)


def _email_event(i, sender, actor="alice"):
    return LogEvent(i, 1000 + i, "WS01", "email_received", actor,
                    {"email_from": sender, "attachment_ext": "pdf"})


def test_tokens_deterministic_and_joinable(vault_and_shares):
    vault, _ = vault_and_shares
    a = vault.pseudonymize_event(_email_event(1, "m@x.example"))
    b = vault.pseudonymize_event(_email_event(2, "m@x.example"))
    assert a.actor == b.actor
    assert a.attributes["email_from"] == b.attributes["email_from"]
    assert a.actor.startswith("pn:")
    assert len(a.actor) == 3 + 32


def test_distinct_plaintexts_distinct_tokens(vault_and_shares):
    vault, _ = vault_and_shares
    a = vault.pseudonymize_event(_email_event(3, "m@x.example", actor="alice"))
    b = vault.pseudonymize_event(_email_event(4, "m@x.example", actor="bob"))
    assert a.actor != b.actor


def test_field_classes_separate_token_spaces(vault_and_shares):
    vault, _ = vault_and_shares
    # same plaintext as a user and as an email address gets different tokens
    assert vault.token_for("user", "alice") != vault.token_for("email", "alice")


def test_non_identity_fields_untouched(vault_and_shares):
    vault, _ = vault_and_shares
    e = LogEvent(5, 10, "WS01", "fw_conn", "alice",
                 {"dst_ip": "10.0.0.9", "dst_port": "443", "verdict": "allow",
                  "bytes_out": "120"})
    out = vault.pseudonymize_event(e)
    assert out.attributes == e.attributes
    assert out.source_host == e.source_host
    assert out.ts == e.ts and out.id == e.id


def test_idempotent_on_tokens(vault_and_shares):
    vault, _ = vault_and_shares
    once = vault.pseudonymize_event(_email_event(6, "p@q.example"))
    twice = vault.pseudonymize_event(once)
    assert twice == once


def test_reveal_roundtrip(vault_and_shares):
    vault, shares = vault_and_shares
    e = vault.pseudonymize_event(_email_event(7, "boss@corp.example", actor="carol"))
    assert vault.reveal(e.actor, shares[:2]) == "carol"
    assert vault.reveal(e.attributes["email_from"], [shares[0], shares[2]]) \
        == "boss@corp.example"


def test_reveal_requires_k_shares(vault_and_shares):
    vault, shares = vault_and_shares
    e = vault.pseudonymize_event(_email_event(8, "x@y.example", actor="dave"))
    with pytest.raises(InsufficientShares):
        vault.reveal(e.actor, shares[:1])


def test_reveal_wrong_shares_fail_closed(vault_and_shares):
    vault, shares = vault_and_shares
    e = vault.pseudonymize_event(_email_event(9, "x@y.example", actor="erin"))
    forged = ShamirShare(shares[1].x, bytes(len(shares[1].y)))
    with pytest.raises(IntegrityFailure):
        vault.reveal(e.actor, [shares[0], forged])


def test_reveal_unknown_token(vault_and_shares):
    vault, shares = vault_and_shares
    with pytest.raises(UnknownToken):
        vault.reveal("pn:" + "00" * 16, shares[:2])


def test_sealed_vault_rejects_new_identities(vault_and_shares, tmp_path):
    vault, _ = vault_and_shares
    path = str(tmp_path / "vault.json")
    vault.save(path)
    sealed = PseudonymVault.load(path, read_only=True)
    # known plaintexts still tokenize
    known = sealed.pseudonymize_event(_email_event(10, "m@x.example"))
    assert known.actor == vault.token_for("user", "alice")
    with pytest.raises(VaultSealed):
        sealed.pseudonymize_event(_email_event(11, "new@new.example",
                                               actor="never-seen"))


def test_save_load_roundtrip(vault_and_shares, tmp_path):
    vault, shares = vault_and_shares
    e = vault.pseudonymize_event(_email_event(12, "round@trip.example",
                                              actor="frank"))
    path = str(tmp_path / "vault.json")
    vault.save(path)
    again = PseudonymVault.load(path)
    assert again.entries == vault.entries
    assert again.k == vault.k and again.n == vault.n
    assert again.reveal(e.actor, shares[:2]) == "frank"


def test_token_collision_detected(vault_and_shares):
    vault, _ = vault_and_shares
    token = vault.token_for("user", "grace")
    vault.entries[token] = {"h": "00" * 32, "c": ""}
    try:
        with pytest.raises(TokenCollision):
            vault.pseudonymize_event(
                LogEvent(13, 10, "WS01", "logon", "grace", {"session_id": "S"})
            )
    finally:
        del vault.entries[token]


def test_load_rejects_foreign_file(tmp_path):
    path = str(tmp_path / "bad.json")
    open(path, "w").write('{"magic": "something-else"}')
    with pytest.raises(ValueError):
        PseudonymVault.load(path)


@pytest.mark.parametrize("payload", [
    {"magic": "chaintrace-vault", "version": 1, "primitive": "rsa-2048-oaep-sha256"},
    {"magic": "chaintrace-vault", "version": 1, "primitive": "rsa-2048-oaep-sha256",
     "token_key": "not hex", "public_key": "", "k": 2, "n": 3, "entries": {},
     "identity_fields": {}},
    ["chaintrace-vault"],
    *({"magic": "chaintrace-vault", "version": 1, "primitive": "rsa-2048-oaep-sha256",
       "token_key": "00", "public_key": "", "k": 2, "n": 3,
       "entries": {"pn:1": {"h": "ab", "c": ""}},
       "identity_fields": {"actor": "user"}, **damage}
      for damage in ({"entries": {"pn:1": {"hh": "ab", "c": ""}}},
                     {"k": "2"}, {"identity_fields": ["actor"]},
                     {"version": "x"}, {"version": 2}, {"version": True})),
])
def test_load_rejects_damaged_vault(tmp_path, payload):
    path = tmp_path / "vault.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(VaultFormatError):
        PseudonymVault.load(str(path))


# --- the per-process token memo ---

def _fresh(vault):
    """An empty vault under the same keys, without a new RSA key pair."""
    return PseudonymVault(vault.token_key, vault.public_key_pem, vault.k, vault.n)


_MEMO_EVENTS = [_email_event(i, f"s{i % 3}@x.example", actor=f"u{i % 4}")
                for i in range(24)]


def test_memo_tokens_equal_token_for(vault_and_shares):
    memo, plain = _fresh(vault_and_shares[0]), _fresh(vault_and_shares[0])
    for e in _MEMO_EVENTS:
        got = memo.pseudonymize_event(e)
        plain._tokens.clear()  # every registration hashes and checks again
        assert plain.pseudonymize_event(e) == got
        assert got.actor == memo.token_for("user", e.actor)
        assert got.attributes["email_from"] == memo.token_for(
            "email", e.attributes["email_from"])
    assert len(memo._tokens) == 4 + 3
    assert {t: v["h"] for t, v in memo.entries.items()} \
        == {t: v["h"] for t, v in plain.entries.items()}


def test_memo_never_holds_a_sealed_refusal(vault_and_shares, tmp_path):
    path = str(tmp_path / "vault.json")
    _fresh(vault_and_shares[0]).save(path)
    sealed = PseudonymVault.load(path, read_only=True)
    for _ in range(3):
        with pytest.raises(VaultSealed):
            sealed.pseudonymize_event(_email_event(1, "s@x.example"))
    assert sealed._tokens == {} and sealed.entries == {}


def test_memo_keeps_no_collision(vault_and_shares):
    vault = _fresh(vault_and_shares[0])
    token = vault.token_for("user", "mallory")
    vault.entries[token] = {"h": "00" * 32, "c": ""}
    e = LogEvent(1, 10, "WS01", "logon", "mallory", {"session_id": "S"})
    for _ in range(2):
        with pytest.raises(TokenCollision):
            vault.pseudonymize_event(e)
    assert vault._tokens == {}


def test_memo_is_not_saved_compared_or_shown(vault_and_shares, tmp_path):
    vault = _fresh(vault_and_shares[0])
    for e in _MEMO_EVENTS:
        vault.pseudonymize_event(e)
    path = tmp_path / "vault.json"
    vault.save(str(path))
    saved = json.loads(path.read_text())
    assert set(saved) == {"magic", "version", "primitive", "k", "n", "token_key",
                          "public_key", "identity_fields", "entries"}
    again = PseudonymVault.load(str(path))
    assert again._tokens == {} and again == vault
    assert "_tokens" not in repr(vault)
