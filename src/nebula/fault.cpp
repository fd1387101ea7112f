#include "nebula/fault.hpp"

#include <cstdlib>

namespace nebulameos::nebula {

namespace {

Result<double> ParseRate(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const double rate = std::strtod(value.c_str(), &end);
  if (end == value.c_str() || *end != '\0' || rate < 0.0 || rate > 1.0) {
    return Status::InvalidArgument("fault profile rate '" + key + "=" + value +
                                   "' must be a number in [0, 1]");
  }
  return rate;
}

Result<uint64_t> ParseCount(const std::string& key, const std::string& value) {
  char* end = nullptr;
  const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
  if (end == value.c_str() || *end != '\0') {
    return Status::InvalidArgument("fault profile count '" + key + "=" +
                                   value + "' must be a non-negative integer");
  }
  return static_cast<uint64_t>(n);
}

}  // namespace

Result<FaultProfile> ParseFaultProfile(const std::string& spec) {
  FaultProfile profile;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string entry = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (entry.empty()) continue;
    const size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("fault profile entry '" + entry +
                                     "' is not key=value");
    }
    const std::string key = entry.substr(0, eq);
    const std::string value = entry.substr(eq + 1);
    if (key == "drop") {
      NM_ASSIGN_OR_RETURN(profile.drop_rate, ParseRate(key, value));
    } else if (key == "dup" || key == "duplicate") {
      NM_ASSIGN_OR_RETURN(profile.duplicate_rate, ParseRate(key, value));
    } else if (key == "reorder") {
      NM_ASSIGN_OR_RETURN(profile.reorder_rate, ParseRate(key, value));
    } else if (key == "delay") {
      NM_ASSIGN_OR_RETURN(profile.delay_rate, ParseRate(key, value));
    } else if (key == "disconnect_after") {
      NM_ASSIGN_OR_RETURN(profile.disconnect_after_frames,
                          ParseCount(key, value));
    } else if (key == "seed") {
      NM_ASSIGN_OR_RETURN(profile.seed, ParseCount(key, value));
    } else {
      return Status::InvalidArgument(
          "unknown fault profile key '" + key +
          "' (expected drop/dup/reorder/delay/disconnect_after/seed)");
    }
  }
  return profile;
}

Result<std::optional<FaultProfile>> EnvFaultProfile() {
  const char* env = std::getenv("NM_FAULT_PROFILE");
  if (env == nullptr || *env == '\0') return std::optional<FaultProfile>();
  Result<FaultProfile> parsed = ParseFaultProfile(env);
  if (!parsed.ok()) {
    return Status::InvalidArgument("NM_FAULT_PROFILE='" + std::string(env) +
                                   "': " + parsed.status().message());
  }
  return std::optional<FaultProfile>(*parsed);
}

FaultProfile CombineFaultProfiles(const FaultProfile& a,
                                  const FaultProfile& b) {
  FaultProfile out;
  out.drop_rate = 1.0 - (1.0 - a.drop_rate) * (1.0 - b.drop_rate);
  out.duplicate_rate =
      1.0 - (1.0 - a.duplicate_rate) * (1.0 - b.duplicate_rate);
  out.reorder_rate = 1.0 - (1.0 - a.reorder_rate) * (1.0 - b.reorder_rate);
  out.delay_rate = 1.0 - (1.0 - a.delay_rate) * (1.0 - b.delay_rate);
  if (a.disconnect_after_frames == 0) {
    out.disconnect_after_frames = b.disconnect_after_frames;
  } else if (b.disconnect_after_frames == 0) {
    out.disconnect_after_frames = a.disconnect_after_frames;
  } else {
    out.disconnect_after_frames =
        std::min(a.disconnect_after_frames, b.disconnect_after_frames);
  }
  // Mix both seeds through one SplitMix64 step so (s, 0) and (0, s) draw
  // distinct streams.
  SplitMix64 mixer(a.seed ^ (b.seed * 0x9e3779b97f4a7c15ULL + 1));
  out.seed = mixer.Next();
  return out;
}

const char* ToString(ShedPolicy policy) {
  switch (policy) {
    case ShedPolicy::kBlock:
      return "block";
    case ShedPolicy::kDropOldest:
      return "drop-oldest";
    case ShedPolicy::kDropLate:
      return "drop-late";
  }
  return "unknown";
}

const char* ToString(HealthState state) {
  switch (state) {
    case HealthState::kHealthy:
      return "Healthy";
    case HealthState::kDegraded:
      return "Degraded";
    case HealthState::kDisconnected:
      return "Disconnected";
  }
  return "unknown";
}

}  // namespace nebulameos::nebula
