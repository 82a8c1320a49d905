"""Deterministic pseudonymization with escrowed re-identification.

Identity fields are replaced by keyed-hash tokens so analyses can still
join events by user. The plaintext of every token is encrypted under an
RSA-2048-OAEP public key whose private half is split with k-of-n Shamir
secret sharing; re-identification therefore needs k share holders.
"""

from __future__ import annotations

import base64
import hashlib
import hmac
import json
import os
from dataclasses import asdict, dataclass, field

from .errors import (
    DecodeError,
    IntegrityFailure,
    TokenCollision,
    UnknownToken,
    VaultFormatError,
    VaultSealed,
)
from .events import LogEvent, committing, load_json
from .secretshare import ShamirShare, reconstruct_secret, split_secret

_VAULT_MAGIC = "chaintrace-vault"
_VAULT_VERSION = 1
_PRIMITIVE = "rsa-2048-oaep-sha256"
_TOKEN_PREFIX = "pn:"

# Which event fields carry identities, and the field class each one
# hashes under. Fields in one class share tokens for equal plaintexts.
DEFAULT_IDENTITY_FIELDS: dict[str, str] = {
    "actor": "user",
    "email_from": "email",
    "email_to": "email",
}


# cryptography is imported by the code that encrypts, decrypts or makes a
# key, so that loading a vault, or this module, does not load it.

def _oaep() -> padding.OAEP:
    from cryptography.hazmat.primitives import hashes
    from cryptography.hazmat.primitives.asymmetric import padding

    return padding.OAEP(
        mgf=padding.MGF1(algorithm=hashes.SHA256()),
        algorithm=hashes.SHA256(),
        label=None,
    )


@dataclass
class PseudonymVault:
    """Token to ciphertext mapping plus the escrow public key."""

    token_key: bytes
    public_key_pem: bytes
    k: int
    n: int
    entries: dict[str, dict[str, str]] = field(default_factory=dict)
    identity_fields: dict[str, str] = field(default_factory=lambda: dict(DEFAULT_IDENTITY_FIELDS))
    read_only: bool = False
    # (field class, plaintext) -> token of each registration this process
    # made; not saved, compared or shown
    _tokens: dict[tuple[str, str], str] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    # --- token derivation ---

    def _full_hash(self, field_class: str, plaintext: str) -> bytes:
        try:
            msg = field_class.encode() + b"\x00" + plaintext.encode()
        except UnicodeEncodeError:  # a lone surrogate
            raise DecodeError(f"{field_class} {plaintext!r} is not UTF-8 text") from None
        return hmac.new(self.token_key, msg, hashlib.sha256).digest()

    def token_for(self, field_class: str, plaintext: str) -> str:
        return _TOKEN_PREFIX + self._full_hash(field_class, plaintext)[:16].hex()

    # --- mutation ---

    def _register(self, field_class: str, plaintext: str) -> str:
        """The token of ``plaintext``, added to the vault if new. A pair
        is hashed and checked once per process: ``_tokens`` keeps each
        successful registration."""
        token = self._tokens.get((field_class, plaintext))
        if token is not None:
            return token
        full = self._full_hash(field_class, plaintext)
        token = _TOKEN_PREFIX + full[:16].hex()
        existing = self.entries.get(token)
        if existing is None:
            if self.read_only:
                raise VaultSealed(f"vault is read-only; cannot add token {token}")
            from cryptography.hazmat.primitives import serialization

            pub = serialization.load_pem_public_key(self.public_key_pem)
            ciphertext = pub.encrypt(plaintext.encode(), _oaep())
            self.entries[token] = {
                "h": full.hex(),
                "c": base64.b64encode(ciphertext).decode(),
            }
        elif existing["h"] != full.hex():
            raise TokenCollision(
                f"token {token} already bound to a different plaintext"
            )
        self._tokens[(field_class, plaintext)] = token
        return token

    def pseudonymize_event(self, e: LogEvent) -> LogEvent:
        """Replace identity fields by tokens; idempotent on tokens."""
        actor = e.actor
        if "actor" in self.identity_fields and not actor.startswith(_TOKEN_PREFIX):
            actor = self._register(self.identity_fields["actor"], actor)
        attrs: dict[str, str] = {}
        for key, value in e.attributes.items():
            cls = self.identity_fields.get(key)
            if cls is not None and not value.startswith(_TOKEN_PREFIX):
                value = self._register(cls, value)
            attrs[key] = value
        return LogEvent(
            id=e.id,
            ts=e.ts,
            source_host=e.source_host,
            event_type=e.event_type,
            actor=actor,
            attributes=attrs,
        )

    # --- re-identification ---

    def reveal(self, token: str, shares: list[ShamirShare]) -> str:
        entry = self.entries.get(token)
        if entry is None:
            raise UnknownToken(token)
        der = reconstruct_secret(shares, threshold=self.k)
        from cryptography.hazmat.primitives import serialization

        try:
            priv = serialization.load_der_private_key(der, password=None)
            plaintext = priv.decrypt(
                base64.b64decode(entry["c"]), _oaep()
            ).decode()
        except Exception as exc:  # wrong shares yield garbage key material
            raise IntegrityFailure(f"cannot decrypt entry for {token}") from exc
        if self._full_hash_matches(token, entry, plaintext):
            return plaintext
        raise IntegrityFailure(f"decrypted plaintext does not hash to {token}")

    def _full_hash_matches(self, token: str, entry: dict[str, str], plaintext: str) -> bool:
        for cls in set(self.identity_fields.values()):
            if self._full_hash(cls, plaintext).hex() == entry["h"]:
                return True
        return False

    # --- persistence ---

    def save(self, path: str) -> None:
        doc = _VaultFile(
            magic=_VAULT_MAGIC, version=_VAULT_VERSION, primitive=_PRIMITIVE, k=self.k,
            n=self.n, token_key=self.token_key.hex(), public_key=self.public_key_pem.decode(),
            identity_fields=self.identity_fields,
            entries={token: _Entry(**entry) for token, entry in self.entries.items()})
        with committing(path) as (tmp,), open(tmp, "w", encoding="utf-8") as fh:
            json.dump(asdict(doc), fh, indent=0, sort_keys=True)

    @classmethod
    def load(cls, path: str, read_only: bool = False) -> "PseudonymVault":
        doc = load_json(path, "vault", _VaultFile, VaultFormatError)
        if (doc.magic, doc.version, doc.primitive) != (_VAULT_MAGIC, _VAULT_VERSION, _PRIMITIVE):
            raise VaultFormatError(f"{path}: not a version {_VAULT_VERSION} {_PRIMITIVE} vault")
        try:
            return cls(token_key=bytes.fromhex(doc.token_key),
                       public_key_pem=doc.public_key.encode(), k=doc.k, n=doc.n,
                       entries={token: vars(entry) for token, entry in doc.entries.items()},
                       identity_fields=doc.identity_fields, read_only=read_only)
        except ValueError as exc:  # bad hex, or a lone surrogate in the key
            raise VaultFormatError(f"vault {path}: malformed: {exc}") from None


@dataclass
class _Entry:
    h: str  # the full keyed hash, hex
    c: str  # the ciphertext, base64


@dataclass
class _VaultFile:
    """The members of a vault file, as ``PseudonymVault.save`` writes them."""

    magic: str
    version: int
    primitive: str
    k: int
    n: int
    token_key: str  # hex
    public_key: str  # PEM
    identity_fields: dict[str, str]
    entries: dict[str, _Entry]


def create_vault(k: int, n: int) -> tuple[PseudonymVault, list[ShamirShare]]:
    """Generate a fresh vault and the n shares of its private key."""
    from cryptography.hazmat.primitives import serialization
    from cryptography.hazmat.primitives.asymmetric import rsa

    key = rsa.generate_private_key(public_exponent=65537, key_size=2048)
    private_der = key.private_bytes(
        encoding=serialization.Encoding.DER,
        format=serialization.PrivateFormat.PKCS8,
        encryption_algorithm=serialization.NoEncryption(),
    )
    public_pem = key.public_key().public_bytes(
        encoding=serialization.Encoding.PEM,
        format=serialization.PublicFormat.SubjectPublicKeyInfo,
    )
    vault = PseudonymVault(
        token_key=os.urandom(32),
        public_key_pem=public_pem,
        k=k,
        n=n,
    )
    shares = split_secret(private_der, k, n)
    return vault, shares
