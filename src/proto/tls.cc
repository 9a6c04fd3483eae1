#include "proto/tls.h"

namespace pvn {

Bytes Certificate::canonical_bytes() const {
  ByteWriter w;
  w.str(subject);
  w.str(issuer);
  w.u64(subject_key.id);
  w.i64(not_before);
  w.i64(not_after);
  w.u64(serial);
  return std::move(w).take();
}

Bytes encode_chain(const CertChain& chain) {
  CertChainMessage m;
  m.certs = chain;
  return m.encode();
}

std::optional<CertChain> decode_chain(const Bytes& raw) {
  auto m = CertChainMessage::decode(raw);
  if (!m) return std::nullopt;
  return std::move(m->certs);
}

const char* to_string(CertStatus status) {
  switch (status) {
    case CertStatus::kOk: return "ok";
    case CertStatus::kEmptyChain: return "empty-chain";
    case CertStatus::kExpired: return "expired";
    case CertStatus::kNotYetValid: return "not-yet-valid";
    case CertStatus::kNameMismatch: return "name-mismatch";
    case CertStatus::kUntrustedRoot: return "untrusted-root";
    case CertStatus::kBadSignature: return "bad-signature";
    case CertStatus::kRevoked: return "revoked";
  }
  return "?";
}

CertificateAuthority::CertificateAuthority(std::string name,
                                           std::uint64_t key_seed)
    : name_(std::move(name)), key_(key_seed) {
  self_cert_.subject = name_;
  self_cert_.issuer = name_;
  self_cert_.subject_key = key_.public_key();
  self_cert_.not_before = 0;
  self_cert_.not_after = seconds(100LL * 365 * 24 * 3600);
  self_cert_.serial = 0;
  self_cert_.issuer_signature = key_.sign(self_cert_.canonical_bytes());
}

Certificate CertificateAuthority::issue(const std::string& subject,
                                        const PublicKey& subject_key,
                                        SimTime not_before, SimTime not_after) {
  Certificate c;
  c.subject = subject;
  c.issuer = name_;
  c.subject_key = subject_key;
  c.not_before = not_before;
  c.not_after = not_after;
  c.serial = next_serial_++;
  c.issuer_signature = key_.sign(c.canonical_bytes());
  return c;
}

std::unique_ptr<CertificateAuthority> CertificateAuthority::issue_intermediate(
    const std::string& name, std::uint64_t key_seed, SimTime not_before,
    SimTime not_after) {
  auto child = std::make_unique<CertificateAuthority>(name, key_seed);
  child->self_cert_ =
      issue(name, child->key_.public_key(), not_before, not_after);
  child->parent_cert_ = self_cert_;
  return child;
}

void TrustStore::trust_root(const CertificateAuthority& ca) {
  keys.trust(ca.key());
  trusted_roots.insert(ca.key().public_key().id);
}

void TrustStore::add_intermediate(const CertificateAuthority& ca) {
  keys.trust(ca.key());
}

CertStatus validate_chain(const CertChain& chain, const TrustStore& trust,
                          SimTime now, const std::string& expected_name) {
  if (chain.empty()) return CertStatus::kEmptyChain;

  // Name check on the leaf.
  if (!expected_name.empty() && chain.front().subject != expected_name) {
    return CertStatus::kNameMismatch;
  }

  for (std::size_t i = 0; i < chain.size(); ++i) {
    const Certificate& cert = chain[i];
    if (now < cert.not_before) return CertStatus::kNotYetValid;
    if (now > cert.not_after) return CertStatus::kExpired;
    if (trust.revoked_serials.contains(cert.serial) && cert.serial != 0) {
      return CertStatus::kRevoked;
    }
    // Signature: each cert is signed by its issuer — the next cert in the
    // chain, or itself for the self-signed root.
    const PublicKey issuer_key = (i + 1 < chain.size())
                                     ? chain[i + 1].subject_key
                                     : cert.subject_key;
    if (!trust.keys.verify(issuer_key, cert.canonical_bytes(),
                           cert.issuer_signature)) {
      // Distinguish "we don't know the key" from "the signature is wrong":
      // unknown root keys mean the chain ends somewhere we do not trust.
      if (!trust.keys.trusts(issuer_key)) return CertStatus::kUntrustedRoot;
      return CertStatus::kBadSignature;
    }
  }

  // The chain must terminate in a trusted root.
  if (!trust.trusted_roots.contains(chain.back().subject_key.id)) {
    return CertStatus::kUntrustedRoot;
  }
  return CertStatus::kOk;
}

Digest derive_session_key(const Bytes& client_nonce, const Bytes& server_nonce,
                          const PublicKey& server_key) {
  ByteWriter w;
  w.blob(client_nonce);
  w.blob(server_nonce);
  w.u64(server_key.id);
  w.str("tls-lite-master-secret");
  return digest_of(w.bytes());
}

Bytes seal_app_data(const Digest& session_key, const Bytes& plaintext) {
  ByteWriter w;
  w.blob(plaintext);
  w.blob(hmac(session_key.to_bytes(), plaintext).to_bytes());
  return std::move(w).take();
}

std::optional<Bytes> open_app_data(const Digest& session_key,
                                   const Bytes& sealed) {
  ByteReader r(sealed);
  Bytes plaintext = r.blob();
  const auto mac = Digest::from_bytes(r.blob());
  if (!r.ok() || !mac) return std::nullopt;
  if (hmac(session_key.to_bytes(), plaintext) != *mac) return std::nullopt;
  return plaintext;
}

// --- TlsServer --------------------------------------------------------------

TlsServer::TlsServer(TcpConnection& conn, CertChain chain, KeyPair key)
    : conn_(&conn),
      chain_(std::move(chain)),
      key_(std::move(key)),
      framer_([this](Bytes frame) { on_record(std::move(frame)); }) {
  conn_->on_data = [this](const Bytes& data) { framer_.feed(data); };
}

void TlsServer::send(const Bytes& plaintext) {
  if (!established_) return;
  TlsRecord rec;
  rec.type = TlsContentType::kAppData;
  rec.body = seal_app_data(session_key_, plaintext);
  conn_->send(StreamFramer::frame(rec.encode()));
}

void TlsServer::on_record(Bytes frame) {
  const auto rec = TlsRecord::decode(frame);
  if (!rec) return;
  switch (rec->type) {
    case TlsContentType::kClientHello: {
      // The SNI is unused server-side in this model.
      const auto client_hello = TlsClientHello::decode(rec->body);
      if (!client_hello) return;
      client_nonce_ = client_hello->nonce;
      ByteWriter nonce;
      nonce.u64(key_.public_key().id);
      nonce.str("server-nonce");
      server_nonce_ = digest_of(nonce.bytes()).to_bytes();
      TlsServerHello server_hello;
      server_hello.nonce = server_nonce_;
      server_hello.chain.certs = chain_;
      TlsRecord hello;
      hello.type = TlsContentType::kServerHello;
      hello.body = server_hello.encode();
      conn_->send(StreamFramer::frame(hello.encode()));
      session_key_ =
          derive_session_key(client_nonce_, server_nonce_, key_.public_key());
      break;
    }
    case TlsContentType::kFinished:
      established_ = true;
      break;
    case TlsContentType::kAppData: {
      const auto plaintext = open_app_data(session_key_, rec->body);
      if (plaintext && on_data_) on_data_(*plaintext);
      break;
    }
    default:
      break;
  }
}

// --- TlsClient --------------------------------------------------------------

TlsClient::TlsClient(TcpConnection& conn, std::string server_name,
                     const TrustStore* trust, TlsClientPolicy policy,
                     std::uint64_t nonce_seed)
    : conn_(&conn),
      server_name_(std::move(server_name)),
      trust_(trust),
      policy_(policy),
      framer_([this](Bytes frame) { on_record(std::move(frame)); }) {
  ByteWriter nonce;
  nonce.u64(nonce_seed);
  nonce.str("client-nonce");
  client_nonce_ = digest_of(nonce.bytes()).to_bytes();

  conn_->on_data = [this](const Bytes& data) { framer_.feed(data); };
  const auto send_hello = [this] {
    TlsClientHello client_hello;
    client_hello.server_name = server_name_;
    client_hello.nonce = client_nonce_;
    TlsRecord hello;
    hello.type = TlsContentType::kClientHello;
    hello.body = client_hello.encode();
    conn_->send(StreamFramer::frame(hello.encode()));
  };
  if (conn_->established()) {
    send_hello();
  } else {
    conn_->on_connected = send_hello;
  }
}

void TlsClient::send(const Bytes& plaintext) {
  if (!info_.established) return;
  TlsRecord rec;
  rec.type = TlsContentType::kAppData;
  rec.body = seal_app_data(info_.session_key, plaintext);
  conn_->send(StreamFramer::frame(rec.encode()));
}

void TlsClient::on_record(Bytes frame) {
  const auto rec = TlsRecord::decode(frame);
  if (!rec) return;
  switch (rec->type) {
    case TlsContentType::kServerHello: {
      const auto hello = TlsServerHello::decode(rec->body);
      if (!hello || hello->chain.certs.empty()) {
        info_.cert_status = CertStatus::kEmptyChain;
        conn_->abort();
        if (on_connected_) on_connected_(info_);
        return;
      }
      const CertChain& chain = hello->chain.certs;
      info_.server_chain = chain;
      if (policy_ == TlsClientPolicy::kStrict && trust_ != nullptr) {
        info_.cert_status =
            validate_chain(chain, *trust_, conn_->now(), server_name_);
      } else {
        info_.cert_status = CertStatus::kOk;  // broken client: no checks
      }
      if (info_.cert_status != CertStatus::kOk) {
        TlsRecord alert;
        alert.type = TlsContentType::kAlert;
        conn_->send(StreamFramer::frame(alert.encode()));
        conn_->close();
        if (on_connected_) on_connected_(info_);
        return;
      }
      info_.session_key = derive_session_key(client_nonce_, hello->nonce,
                                             chain.front().subject_key);
      TlsRecord fin;
      fin.type = TlsContentType::kFinished;
      conn_->send(StreamFramer::frame(fin.encode()));
      info_.established = true;
      if (on_connected_) on_connected_(info_);
      break;
    }
    case TlsContentType::kAppData: {
      const auto plaintext = open_app_data(info_.session_key, rec->body);
      if (!plaintext) {
        bad_mac_ = true;
        return;
      }
      if (on_data_) on_data_(*plaintext);
      break;
    }
    default:
      break;
  }
}

}  // namespace pvn
