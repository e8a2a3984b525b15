// Deterministic fault injection for the streaming core.
//
// The paper sells LogLens as a zero-downtime service (Section V); this layer
// exists to *prove* it. Components consult a seedable FaultInjector at named
// sites on their hot paths — broker produce/fetch, partition task
// start/process/finish, checkpoint write — and the injector decides, from a
// per-site deterministic RNG stream, whether to fail that call and how:
//
//   kThrow     — raise FaultError (the caller's retry/dead-letter/supervisor
//                machinery must absorb it);
//   kDelay     — stall the call for `delay_ms` (a slow broker, a GC pause);
//   kTornWrite — for checkpoint writes: persist a prefix of the payload and
//                report failure, as a crash mid-write would.
//
// A disarmed site costs one map lookup under a short mutex; production code
// holds a nullptr injector and pays nothing. Every fired fault is counted in
// `loglens_faults_injected_total{site,action}` and per-site trigger counts
// are readable directly for tests. `max_triggers` caps how often a site
// fires, which is how chaos tests guarantee that retry budgets are never
// exhausted (so the pipeline's output must match the fault-free run).
#pragma once

#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>

#include "common/lock_rank.h"
#include "common/rng.h"
#include "common/thread_annotations.h"
#include "metrics/metrics.h"

namespace loglens {

// Canonical site names. Components pass these to check()/hit(); tests arm
// them. New sites are just new strings, but keep this list in sync with
// docs/FAULTS.md.
inline constexpr const char* kFaultSiteProduce = "broker.produce";
inline constexpr const char* kFaultSiteFetch = "broker.fetch";
inline constexpr const char* kFaultSiteTaskStart = "task.start";
inline constexpr const char* kFaultSiteTaskProcess = "task.process";
inline constexpr const char* kFaultSiteTaskFinish = "task.finish";
inline constexpr const char* kFaultSiteCheckpointWrite = "checkpoint.write";
inline constexpr const char* kFaultSiteSegmentFlush = "storage.segment_flush";
inline constexpr const char* kFaultSiteStorageRewrite = "storage.segment_rewrite";

enum class FaultAction {
  kNone = 0,
  kThrow,
  kDelay,
  kTornWrite,
};

const char* fault_action_name(FaultAction action);

// The exception injected faults (and real partition-task failures) surface
// as. Deliberately a plain runtime_error subtype: recovery code catches
// std::exception and must not care whether the fault was injected.
class FaultError : public std::runtime_error {
 public:
  explicit FaultError(const std::string& what) : std::runtime_error(what) {}
};

struct FaultSpec {
  FaultAction action = FaultAction::kThrow;
  // Probability that a consultation fires, drawn from the site's own seeded
  // RNG stream (so one site's draw count never perturbs another's).
  double probability = 1.0;
  // kDelay: how long check() stalls before returning.
  int64_t delay_ms = 0;
  // Lifetime cap on fired faults at this site. The chaos tests set this
  // below the consumers' retry budgets to make eventual success provable.
  uint64_t max_triggers = UINT64_MAX;
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed, MetricsRegistry* metrics = nullptr);

  FaultInjector(const FaultInjector&) = delete;
  FaultInjector& operator=(const FaultInjector&) = delete;

  // Arms (or replaces) the spec for a site. Arming resets neither the site's
  // RNG stream nor its trigger count, so re-arming mid-run is well-defined.
  void arm(const std::string& site, FaultSpec spec) LOGLENS_EXCLUDES(mu_);
  void disarm(const std::string& site) LOGLENS_EXCLUDES(mu_);
  void disarm_all() LOGLENS_EXCLUDES(mu_);

  // Consults a site. Returns the action that fired (kNone when the site is
  // disarmed, the dice miss, or max_triggers is spent). kDelay performs the
  // sleep before returning; kThrow and kTornWrite are returned for the
  // caller to act on (use hit() when "act" just means "throw").
  FaultAction check(const std::string& site) LOGLENS_EXCLUDES(mu_);

  // check(), but kThrow raises FaultError here. For call sites with no
  // status channel (partition tasks).
  void hit(const std::string& site) LOGLENS_EXCLUDES(mu_);

  // Fired-fault counts, for assertions.
  uint64_t triggered(const std::string& site) const LOGLENS_EXCLUDES(mu_);
  uint64_t total_triggered() const LOGLENS_EXCLUDES(mu_);

 private:
  struct Site {
    FaultSpec spec;
    Rng rng;
    uint64_t triggered = 0;
    bool armed = false;

    explicit Site(uint64_t seed) : rng(seed) {}
  };

  Site& site_locked(const std::string& name) LOGLENS_REQUIRES(mu_);

  const uint64_t seed_;
  MetricsRegistry* metrics_;
  // Ranked inside the broker so hot paths may consult sites while a broker
  // operation is in flight; metrics fire after this lock is released.
  mutable RankedMutex mu_{lock_rank::kFaults};
  std::map<std::string, Site> sites_ LOGLENS_GUARDED_BY(mu_);
};

}  // namespace loglens
