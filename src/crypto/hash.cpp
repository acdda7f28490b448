#include "crypto/hash.h"

#include <stdexcept>

#include "crypto/blake2s.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

namespace erasmus::crypto {

std::string to_string(HashAlgo algo) {
  switch (algo) {
    case HashAlgo::kSha1:
      return "SHA-1";
    case HashAlgo::kSha256:
      return "SHA-256";
    case HashAlgo::kBlake2s:
      return "BLAKE2s";
  }
  return "unknown";
}

std::unique_ptr<Hash> Hash::create(HashAlgo algo) {
  switch (algo) {
    case HashAlgo::kSha1:
      return std::make_unique<Sha1>();
    case HashAlgo::kSha256:
      return std::make_unique<Sha256>();
    case HashAlgo::kBlake2s:
      return std::make_unique<Blake2s>();
  }
  throw std::invalid_argument("Hash::create: unknown algorithm");
}

static_assert(Sha1::kDigestSize <= Digest::kMaxSize &&
                  Sha256::kDigestSize <= Digest::kMaxSize &&
                  Blake2s::kMaxDigestSize <= Digest::kMaxSize,
              "every digest and tag must fit the inline Digest");

Bytes Hash::finalize() {
  Digest out;
  finalize_into(out);
  return out.to_bytes();
}

namespace {

template <typename H>
void digest_with(ByteView data, Digest& out) {
  H h;
  h.update(data);
  h.finalize_into(out);
}

}  // namespace

void Hash::digest(HashAlgo algo, ByteView data, Digest& out) {
  switch (algo) {
    case HashAlgo::kSha1:
      return digest_with<Sha1>(data, out);
    case HashAlgo::kSha256:
      return digest_with<Sha256>(data, out);
    case HashAlgo::kBlake2s:
      return digest_with<Blake2s>(data, out);
  }
  throw std::invalid_argument("Hash::digest: unknown algorithm");
}

Bytes Hash::digest(HashAlgo algo, ByteView data) {
  Digest out;
  digest(algo, data, out);
  return out.to_bytes();
}

}  // namespace erasmus::crypto
