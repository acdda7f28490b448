#include "attest/maintenance.h"

#include "common/serde.h"

namespace erasmus::attest {

Bytes MaintenanceRequest::mac_input(Op op, uint64_t treq,
                                    ByteView image_digest,
                                    crypto::MacAlgo /*algo*/) {
  ByteWriter w;
  w.u8(static_cast<uint8_t>(op));
  w.u64(treq);
  w.var_bytes(image_digest);
  return w.take();
}

Bytes MaintenanceRequest::serialize() const {
  ByteWriter w;
  w.u8(static_cast<uint8_t>(op));
  w.u64(treq);
  w.var_bytes(image);
  w.var_bytes(mac);
  return w.take();
}

std::optional<MaintenanceRequest> MaintenanceRequest::deserialize(
    ByteView data) {
  ByteReader r(data);
  MaintenanceRequest req;
  const uint8_t op = r.u8();
  if (op != static_cast<uint8_t>(Op::kUpdate) &&
      op != static_cast<uint8_t>(Op::kErase)) {
    return std::nullopt;
  }
  req.op = static_cast<Op>(op);
  req.treq = r.u64();
  req.image = r.var_bytes();
  req.mac = r.var_bytes();
  if (!r.done()) return std::nullopt;
  return req;
}

std::optional<sim::Duration> handle_maintenance(Prover& prover,
                                                const MaintenanceRequest& req) {
  const auto& config = prover.config();
  const uint64_t now_ticks = prover.rroc().read();

  // Freshness first (cheap), as in the OD path.
  if (req.treq > now_ticks ||
      now_ticks - req.treq > config.od_freshness_window_ticks) {
    return std::nullopt;
  }

  // Authenticate inside the protected environment; the MAC binds the
  // operation and the image content (via its digest).
  const Bytes image_digest =
      crypto::Hash::digest(hash_for(config.algo), req.image);
  bool authentic = false;
  prover.arch().run_protected([&](hw::SecurityArch::ProtectedContext& ctx) {
    authentic = crypto::Mac::verify(
        config.algo, ctx.key(),
        MaintenanceRequest::mac_input(req.op, req.treq, image_digest,
                                      config.algo),
        req.mac);
  });
  if (!authentic) return std::nullopt;

  auto& mem = prover.memory();
  const hw::RegionId app = prover.attested_region();
  const size_t app_size = mem.region_size(app);

  switch (req.op) {
    case MaintenanceRequest::Op::kUpdate: {
      if (req.image.size() > app_size) return std::nullopt;
      // Install: the image, zero-padded to the region (deterministic
      // post-update state so the verifier can predict the new digest).
      Bytes padded = req.image;
      padded.resize(app_size, 0x00);
      mem.write(app, 0, padded, /*privileged=*/true);
      break;
    }
    case MaintenanceRequest::Op::kErase: {
      // Secure erasure: application memory AND the measurement history.
      mem.write(app, 0, Bytes(app_size, 0x00), /*privileged=*/true);
      auto& store = prover.store();
      for (uint64_t slot = 0; slot < store.capacity(); ++slot) {
        store.tamper_erase(slot);  // same primitive; here used legitimately
      }
      break;
    }
  }

  // Writing the image costs roughly a flash-write pass over the region.
  return config.profile.store_read_time(app_size) +
         config.profile.request_auth_time();
}

bool MaintenanceAuthority::attest_now(Prover& prover,
                                      ByteView expected_digest) {
  const uint64_t now_ticks = prover.rroc().read();
  const OdRequest req = make_od_request(record_, now_ticks, 0);
  const auto res = prover.handle_od(req);
  if (!res.response) return false;
  if (!verify_measurement(record_.key.mac(), res.response->fresh)) {
    return false;
  }
  return equal(res.response->fresh.digest, expected_digest);
}

MaintenanceAuthority::UpdateOutcome MaintenanceAuthority::run_update(
    Prover& prover, ByteView new_image) {
  UpdateOutcome outcome;
  const auto algo = record_.key.algo();

  // 1. Attest BEFORE: never push an update onto a compromised device.
  outcome.pre_attestation_ok = attest_now(prover, record_.golden());
  if (!outcome.pre_attestation_ok) return outcome;

  // Each OD request needs a strictly fresher t_req (anti-replay), so let
  // one RROC tick elapse between protocol steps.
  queue_.run_until(queue_.now() + prover.rroc().tick());

  // 2. Authenticated install.
  MaintenanceRequest req;
  req.op = MaintenanceRequest::Op::kUpdate;
  req.treq = prover.rroc().read();
  req.image.assign(new_image.begin(), new_image.end());
  const Bytes image_digest = crypto::Hash::digest(hash_for(algo), req.image);
  req.mac = record_.key.mac()
                .tag({MaintenanceRequest::mac_input(req.op, req.treq,
                                                    image_digest, algo)})
                .to_bytes();
  outcome.request_accepted = handle_maintenance(prover, req).has_value();
  if (!outcome.request_accepted) return outcome;

  queue_.run_until(queue_.now() + prover.rroc().tick());

  // 3. Predict the post-update digest (image zero-padded to the region)
  //    and attest AFTER.
  Bytes padded(new_image.begin(), new_image.end());
  padded.resize(prover.memory().region_size(prover.attested_region()), 0x00);
  outcome.new_golden_digest = crypto::Hash::digest(hash_for(algo), padded);
  outcome.post_attestation_ok =
      attest_now(prover, outcome.new_golden_digest);

  // 4. Rotate the verifier's reference state from the install time on;
  //    pre-update history keeps verifying against the previous epoch.
  if (outcome.post_attestation_ok) {
    record_.rotate_golden(outcome.new_golden_digest, req.treq);
  }
  return outcome;
}

MaintenanceAuthority::EraseOutcome MaintenanceAuthority::run_erase(
    Prover& prover) {
  EraseOutcome outcome;
  const auto algo = record_.key.algo();

  MaintenanceRequest req;
  req.op = MaintenanceRequest::Op::kErase;
  req.treq = prover.rroc().read();
  const Bytes empty_digest = crypto::Hash::digest(hash_for(algo), {});
  req.mac = record_.key.mac()
                .tag({MaintenanceRequest::mac_input(req.op, req.treq,
                                                    empty_digest, algo)})
                .to_bytes();
  outcome.request_accepted = handle_maintenance(prover, req).has_value();
  if (!outcome.request_accepted) return outcome;

  queue_.run_until(queue_.now() + prover.rroc().tick());

  const Bytes zeroised(
      prover.memory().region_size(prover.attested_region()), 0x00);
  outcome.erased_state_proven =
      attest_now(prover, crypto::Hash::digest(hash_for(algo), zeroised));
  return outcome;
}

}  // namespace erasmus::attest
