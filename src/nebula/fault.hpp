/// \file fault.hpp
/// \brief Deterministic network-fault injection and the fault-tolerance
/// policy knobs shared by channels, operators, and the engine.
///
/// The placed deployments of the NebulaStream model run over simulated
/// `NetworkChannel`s; real IoT links drop, duplicate, reorder, delay and
/// disconnect. A `FaultProfile` describes those behaviours as seeded
/// per-frame probabilities, a `FaultInjector` draws frame fates from a
/// deterministic PRNG stream (every run with the same seed injects the
/// same fault sequence — CI can gate on exact outcomes), and
/// `RetryOptions` configures the recovery machinery that keeps delivery
/// exactly-once under those faults: a bounded sender-side retransmit
/// queue with exponential backoff, and a receiver-side reorder-repair
/// buffer (operators.hpp `NetworkChannelSource`) whose gap-repair trigger
/// follows from the profile itself (`FaultProfile::ReorderHorizon`).
///
/// Profiles resolve with the precedence env > engine option > per-link:
/// `NM_FAULT_PROFILE="drop=0.01,reorder=0.005,seed=7"` overrides
/// `EngineOptions::faults.profile`, which combines with the
/// `TopologyLink::fault` profiles along a channel's route.

#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/random.hpp"
#include "common/status.hpp"

namespace nebulameos::nebula {

/// \brief Per-frame fault rates of one link or channel. All rates are
/// independent per-frame probabilities in [0, 1]; a frame suffers at most
/// one fate per send (drawn in drop > duplicate > reorder > delay order).
struct FaultProfile {
  double drop_rate = 0.0;       ///< frame vanishes in transit
  double duplicate_rate = 0.0;  ///< frame arrives twice
  double reorder_rate = 0.0;    ///< frame swaps with the next one sent
  double delay_rate = 0.0;      ///< frame held back a few sends
  /// Hard disconnect after this many frames (0 = never): the channel dies,
  /// in-flight and retained frames are lost, later sends are dropped.
  uint64_t disconnect_after_frames = 0;
  uint64_t seed = 0x5eedfau;  ///< PRNG seed; same seed ⇒ same fault stream

  /// True when any fault behaviour is configured.
  bool Any() const {
    return drop_rate > 0.0 || duplicate_rate > 0.0 || reorder_rate > 0.0 ||
           delay_rate > 0.0 || disconnect_after_frames > 0;
  }

  /// How many later frames can reach the receiver ahead of a frame this
  /// profile holds back without losing it. A reorder swaps a frame with
  /// its successor inside one send, so no drain sees it missing with
  /// frames behind it (0); a delay holds a frame for at most
  /// `FaultInjector::kMaxDelaySends` sends. A gap with more frames behind
  /// it than this can only be a drop.
  size_t ReorderHorizon() const;
};

/// Parses `"drop=0.01,dup=0.002,reorder=0.005,delay=0.01,`
/// `disconnect_after=100,seed=42"` (any subset, any order). Unknown keys
/// and rates outside [0, 1] fail with `InvalidArgument`.
Result<FaultProfile> ParseFaultProfile(const std::string& spec);

/// The `NM_FAULT_PROFILE` environment profile, or nullopt when unset.
/// The CI fault-injection gate uses this to run the whole suite lossy
/// without touching any test. An unparseable value fails with
/// `InvalidArgument` naming the variable and its value.
Result<std::optional<FaultProfile>> EnvFaultProfile();

/// Combines two profiles as independent fault sources: each rate becomes
/// `1 - (1-a)(1-b)`, the disconnect threshold is the smaller non-zero one,
/// and the seed mixes both so distinct combinations draw distinct streams.
FaultProfile CombineFaultProfiles(const FaultProfile& a,
                                  const FaultProfile& b);

/// \brief What to do when a bounded fault-tolerance queue saturates or a
/// frame proves unrecoverable.
enum class ShedPolicy {
  kBlock,       ///< never shed: saturation degrades to a hard error
  kDropOldest,  ///< evict the oldest queued entry / skip the oldest gap
  kDropLate,    ///< refuse the newest entry / late arrival
};

const char* ToString(ShedPolicy policy);

/// \brief Channel health, surfaced through `DeploymentReport` and metrics.
enum class HealthState {
  kHealthy,       ///< no faults observed
  kDegraded,      ///< faults observed but repaired or shed by policy
  kDisconnected,  ///< the channel is permanently dead
};

const char* ToString(HealthState state);

/// \brief Recovery configuration of one channel pair: the sender's
/// retransmit queue, its retry pricing, and the shed policy. The
/// receiver's reorder-repair buffer takes no setting — it requests a
/// retransmit once more frames wait behind a gap than the channel's
/// `FaultProfile::ReorderHorizon`, and for any missing tail at `Finish`.
struct RetryOptions {
  /// Sender-side frames retained for retransmission until acknowledged.
  /// Saturation applies `shed_policy`; a shed frame that later turns out
  /// to be needed is data loss.
  size_t retain_limit = 256;
  /// Retransmission attempts per frame before giving up
  /// (`ResourceExhausted`).
  uint32_t max_attempts = 8;
  /// Exponential backoff per attempt: `base * 2^(attempt-1)`, capped, plus
  /// seeded jitter — modelled as simulated transfer seconds, so lossy
  /// deployments price their recovery latency deterministically.
  double backoff_base_seconds = 0.05;
  double backoff_cap_seconds = 2.0;
  /// Fraction of the backoff randomized (±jitter/2, seeded).
  double jitter = 0.5;
  /// Applied when the retain queue saturates or a frame is unrecoverable:
  /// `kBlock` fails the branch, the drop policies skip the frame and
  /// count it shed. The engine's worker strands saturate by the same
  /// policy (worker_pool.hpp); they shed data morsels, never
  /// end-of-stream.
  ShedPolicy shed_policy = ShedPolicy::kBlock;
};

/// \brief Engine-level fault-tolerance configuration: one profile injected
/// on every lowered channel plus the recovery knobs.
struct FaultToleranceOptions {
  FaultProfile profile;
  RetryOptions retry;
};

/// \brief Draws per-frame fates from a seeded deterministic stream.
///
/// Owned by a `NetworkChannel` and driven under the channel lock, so the
/// fate sequence depends only on the profile seed and the (strand-ordered)
/// send sequence — identical across worker counts.
class FaultInjector {
 public:
  enum class Fate { kDeliver, kDrop, kDuplicate, kReorder, kDelay };

  explicit FaultInjector(const FaultProfile& profile)
      : profile_(profile), rng_(profile.seed) {}

  const FaultProfile& profile() const { return profile_; }

  /// Fate of the next frame sent.
  Fate NextFate() {
    // One uniform draw per frame keeps the stream length independent of
    // which rates are configured (stable replay when tuning one rate).
    const double u = rng_.Uniform();
    double edge = profile_.drop_rate;
    if (u < edge) return Fate::kDrop;
    edge += profile_.duplicate_rate;
    if (u < edge) return Fate::kDuplicate;
    edge += profile_.reorder_rate;
    if (u < edge) return Fate::kReorder;
    edge += profile_.delay_rate;
    if (u < edge) return Fate::kDelay;
    return Fate::kDeliver;
  }

  /// True once \p frames_sent reached the configured disconnect point.
  bool ShouldDisconnect(uint64_t frames_sent) const {
    return profile_.disconnect_after_frames > 0 &&
           frames_sent >= profile_.disconnect_after_frames;
  }

  /// Upper bound of `DelaySends`.
  static constexpr uint64_t kMaxDelaySends = 3;

  /// How many subsequent sends a delayed frame is held back
  /// (1..kMaxDelaySends).
  uint64_t DelaySends() { return 1 + rng_.UniformInt(kMaxDelaySends); }

  /// Seeded uniform in [0, 1) for backoff jitter.
  double JitterDraw() { return rng_.Uniform(); }

 private:
  FaultProfile profile_;
  Rng rng_;
};

inline size_t FaultProfile::ReorderHorizon() const {
  return delay_rate > 0.0 ? FaultInjector::kMaxDelaySends : 0;
}

}  // namespace nebulameos::nebula
