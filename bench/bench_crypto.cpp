// Host-side crypto microbenchmarks (google-benchmark).
//
// These do not reproduce a paper artifact directly; they measure the real
// primitives behind every simulated measurement. Rows that run SHA-256 name
// the compression kernel it dispatched to (Sha256::kernel()). The host's
// ordering of the primitives need not match the simulated devices': on a CPU
// with the SHA extensions HMAC-SHA256 outruns keyed BLAKE2s. The BLAKE2s-vs-
// HMAC-SHA256 ordering of Figs. 6/8 comes from the DeviceProfile constants,
// which DeviceProfile.Blake2sFasterThanHmacSha256OnBothTargets checks.
#include <benchmark/benchmark.h>

#include <string>

#include "crypto/blake2s.h"
#include "crypto/chacha20.h"
#include "crypto/hmac.h"
#include "crypto/hmac_drbg.h"
#include "crypto/mac.h"
#include "crypto/sha1.h"
#include "crypto/sha256.h"

using namespace erasmus;
using namespace erasmus::crypto;

namespace {

Bytes make_buffer(size_t n) {
  Bytes buf(n);
  uint32_t x = 0x1234567;
  for (auto& b : buf) {
    x = x * 1664525u + 1013904223u;
    b = static_cast<uint8_t>(x >> 24);
  }
  return buf;
}

const Bytes kKey = bytes_of("bench-key-0123456789abcdef012345");

// A MAC row's label; HMAC-SHA256 rows add the SHA-256 kernel.
std::string mac_label(MacAlgo algo) {
  std::string label = to_string(algo);
  if (algo == MacAlgo::kHmacSha256) {
    label += " (";
    label += Sha256::kernel();
    label += ')';
  }
  return label;
}

void BM_Sha256(benchmark::State& state) {
  const Bytes buf = make_buffer(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash::digest(HashAlgo::kSha256, buf));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  state.SetLabel(Sha256::kernel());
}
BENCHMARK(BM_Sha256)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_Sha1(benchmark::State& state) {
  const Bytes buf = make_buffer(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash::digest(HashAlgo::kSha1, buf));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1)->Arg(64 * 1024);

void BM_Blake2s(benchmark::State& state) {
  const Bytes buf = make_buffer(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Hash::digest(HashAlgo::kBlake2s, buf));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Blake2s)->Arg(1024)->Arg(64 * 1024)->Arg(1024 * 1024);

void BM_MacCompute(benchmark::State& state) {
  const auto algo = static_cast<MacAlgo>(state.range(0));
  const Bytes buf = make_buffer(static_cast<size_t>(state.range(1)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Mac::compute(algo, kKey, buf));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(1));
  state.SetLabel(mac_label(algo));
}
BENCHMARK(BM_MacCompute)
    ->Args({static_cast<int>(MacAlgo::kHmacSha1), 64 * 1024})
    ->Args({static_cast<int>(MacAlgo::kHmacSha256), 64 * 1024})
    ->Args({static_cast<int>(MacAlgo::kKeyedBlake2s), 64 * 1024});

// The full measurement primitive: H(mem) then MAC(t, digest) -- the unit of
// work Figs. 6/8 sweep.
void BM_FullMeasurement(benchmark::State& state) {
  const auto algo = static_cast<MacAlgo>(state.range(0));
  const Bytes mem = make_buffer(static_cast<size_t>(state.range(1)));
  uint64_t t = 0;
  for (auto _ : state) {
    const Bytes digest = Hash::digest(
        algo == MacAlgo::kKeyedBlake2s ? HashAlgo::kBlake2s
                                       : HashAlgo::kSha256,
        mem);
    Bytes input(8 + digest.size());
    for (int i = 0; i < 8; ++i) input[i] = static_cast<uint8_t>(t >> (8 * i));
    std::copy(digest.begin(), digest.end(), input.begin() + 8);
    benchmark::DoNotOptimize(Mac::compute(algo, kKey, input));
    ++t;
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(1));
  state.SetLabel(mac_label(algo));
}
BENCHMARK(BM_FullMeasurement)
    ->Args({static_cast<int>(MacAlgo::kHmacSha256), 1024 * 1024})
    ->Args({static_cast<int>(MacAlgo::kKeyedBlake2s), 1024 * 1024});

void BM_HmacDrbgNextInterval(benchmark::State& state) {
  // The per-measurement cost of irregular scheduling (§3.5).
  HmacDrbg drbg(kKey, bytes_of("sched"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(drbg.next_below(600));
  }
}
BENCHMARK(BM_HmacDrbgNextInterval);

void BM_ChaCha20Stream(benchmark::State& state) {
  ChaCha20Rng rng(kKey);
  Bytes out(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    rng.generate(std::span<uint8_t>(out));
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_ChaCha20Stream)->Arg(64 * 1024);

}  // namespace
