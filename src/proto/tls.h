// TLS-lite: certificate chains, a certificate authority, chain validation,
// and a handshake + record layer over TCP.
//
// The paper's HTTPS/TLS Enhancement module (§4) interposes on handshakes to
// validate certificates *better than the client does* — so the model needs:
//   * real-looking chains (leaf signed by intermediate signed by root)
//   * every failure mode the TlsValidator must catch: expired, revoked,
//     name-mismatched, untrusted-root, bad-signature (MITM re-signing)
//   * clients with broken validation (the [23] population) that accept
//     anything, so interception succeeds without the PVN and fails with it
//
// Record protection is structural: application records carry an HMAC keyed
// by the session key. An interceptor that re-terminates TLS gets a different
// session key, which the content-modification auditor can detect end-to-end.
#pragma once

#include <functional>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "proto/framing.h"
#include "proto/tcp.h"
#include "util/codec.h"
#include "util/digest.h"

namespace pvn {

struct Certificate {
  std::string subject;       // DNS name the cert is valid for
  std::string issuer;
  PublicKey subject_key;
  SimTime not_before = 0;
  SimTime not_after = 0;
  std::uint64_t serial = 0;
  Signature issuer_signature;  // over canonical_bytes()

  Bytes canonical_bytes() const;
  template <class F> void fields(F& f) {  // util/codec.h
    f(subject, issuer, subject_key, not_before, not_after, serial,
      issuer_signature);
  }
  bool operator==(const Certificate&) const = default;
};

using CertChain = std::vector<Certificate>;  // leaf first, root last

// A chain's wire form: a u16 count, then each certificate.
struct CertChainMessage : codec::Message<CertChainMessage> {
  CertChain certs;
  template <class F> void fields(F& f) { f.list16(certs, "certs"); }
};

Bytes encode_chain(const CertChain& chain);
std::optional<CertChain> decode_chain(const Bytes& raw);

enum class CertStatus {
  kOk,
  kEmptyChain,
  kExpired,
  kNotYetValid,
  kNameMismatch,
  kUntrustedRoot,
  kBadSignature,
  kRevoked,
};
const char* to_string(CertStatus status);

// A certificate authority: issues and revokes certificates. Roots are
// self-signed; intermediates chain to a parent CA.
class CertificateAuthority {
 public:
  CertificateAuthority(std::string name, std::uint64_t key_seed);

  const std::string& name() const { return name_; }
  const KeyPair& key() const { return key_; }
  const Certificate& self_certificate() const { return self_cert_; }

  Certificate issue(const std::string& subject, const PublicKey& subject_key,
                    SimTime not_before, SimTime not_after);
  // Creates a subordinate CA whose certificate is issued by this one.
  std::unique_ptr<CertificateAuthority> issue_intermediate(
      const std::string& name, std::uint64_t key_seed, SimTime not_before,
      SimTime not_after);

  void revoke(std::uint64_t serial) { revoked_.insert(serial); }
  bool is_revoked(std::uint64_t serial) const {
    return revoked_.contains(serial);
  }

  const Certificate* chain_to_root() const {
    return parent_cert_.subject.empty() ? nullptr : &parent_cert_;
  }

 private:
  std::string name_;
  KeyPair key_;
  Certificate self_cert_;
  Certificate parent_cert_;  // empty subject for root CAs
  std::uint64_t next_serial_ = 1;
  std::set<std::uint64_t> revoked_;
};

// The validation context a client (or the PVN TlsValidator) trusts.
struct TrustStore {
  KeyRegistry keys;                    // public->secret for signature checks
  std::set<std::uint64_t> trusted_roots;  // public key ids of trusted roots
  std::set<std::uint64_t> revoked_serials;  // CRL snapshot

  void trust_root(const CertificateAuthority& ca);
  // Also trusts the keys of intermediates so their signatures verify.
  void add_intermediate(const CertificateAuthority& ca);
};

// Full chain validation: signatures, validity window, name match, root
// trust, revocation.
CertStatus validate_chain(const CertChain& chain, const TrustStore& trust,
                          SimTime now, const std::string& expected_name);

// --- Handshake + record layer over TCP ------------------------------------

enum class TlsContentType : std::uint8_t {
  kClientHello = 1,
  kServerHello = 2,
  kFinished = 3,
  kAppData = 4,
  kAlert = 5,
};
constexpr bool wire_valid(TlsContentType t) {
  return t >= TlsContentType::kClientHello && t <= TlsContentType::kAlert;
}

struct TlsRecord : codec::Message<TlsRecord> {
  TlsContentType type = TlsContentType::kAppData;
  Bytes body;

  template <class F> void fields(F& f) { f(type, body); }
};

// The body of a kClientHello record.
struct TlsClientHello : codec::Message<TlsClientHello> {
  std::string server_name;  // SNI
  Bytes nonce;

  template <class F> void fields(F& f) { f(server_name, nonce); }
};

// The body of a kServerHello record.
struct TlsServerHello : codec::Message<TlsServerHello> {
  Bytes nonce;
  CertChainMessage chain;

  template <class F> void fields(F& f) {
    f(nonce);
    f.blob(chain);
  }
};

// Client-side validation behaviour. kNone models the large population of
// apps that skip certificate checks entirely [23].
enum class TlsClientPolicy { kStrict, kNone };

struct TlsSessionInfo {
  bool established = false;
  CertStatus cert_status = CertStatus::kEmptyChain;
  CertChain server_chain;
  Digest session_key;  // shared secret digest (structural)
};

// Server side: serves a certificate chain over an accepted TcpConnection.
class TlsServer {
 public:
  using DataHandler = std::function<void(const Bytes&)>;

  TlsServer(TcpConnection& conn, CertChain chain, KeyPair key);

  void set_on_data(DataHandler handler) { on_data_ = std::move(handler); }
  void send(const Bytes& plaintext);
  bool established() const { return established_; }
  const Digest& session_key() const { return session_key_; }

 private:
  void on_record(Bytes frame);

  TcpConnection* conn_;
  CertChain chain_;
  KeyPair key_;
  StreamFramer framer_;
  bool established_ = false;
  Bytes client_nonce_;
  Bytes server_nonce_;
  Digest session_key_;
  DataHandler on_data_;
};

// Client side: connects, validates the chain per policy, exchanges data.
class TlsClient {
 public:
  using ConnectedHandler = std::function<void(const TlsSessionInfo&)>;
  using DataHandler = std::function<void(const Bytes&)>;

  TlsClient(TcpConnection& conn, std::string server_name,
            const TrustStore* trust, TlsClientPolicy policy,
            std::uint64_t nonce_seed);

  void set_on_connected(ConnectedHandler h) { on_connected_ = std::move(h); }
  void set_on_data(DataHandler h) { on_data_ = std::move(h); }
  void send(const Bytes& plaintext);
  const TlsSessionInfo& info() const { return info_; }

  // True iff a received record failed its MAC (tampering indicator).
  bool saw_bad_mac() const { return bad_mac_; }

 private:
  void on_record(Bytes frame);

  TcpConnection* conn_;
  std::string server_name_;
  const TrustStore* trust_;
  TlsClientPolicy policy_;
  StreamFramer framer_;
  Bytes client_nonce_;
  TlsSessionInfo info_;
  ConnectedHandler on_connected_;
  DataHandler on_data_;
  bool bad_mac_ = false;
};

// Derives the session key both sides compute after the handshake.
Digest derive_session_key(const Bytes& client_nonce, const Bytes& server_nonce,
                          const PublicKey& server_key);

// MACs an application record body with the session key (structural AEAD).
Bytes seal_app_data(const Digest& session_key, const Bytes& plaintext);
// Returns nullopt if the MAC does not verify.
std::optional<Bytes> open_app_data(const Digest& session_key, const Bytes& sealed);

}  // namespace pvn
