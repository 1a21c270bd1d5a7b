//===- fault/Fault.h - Deterministic fault injection -------------*- C++ -*-===//
///
/// \file
/// The fault-injection half of the robustness layer: a seeded FaultPlan
/// keyed on stable *site names* (e.g. "sched.place", "part.coarsen"),
/// armed on a FaultInjector the Session owns, consulted at
/// HCVLIW_FAULT_POINT / HCVLIW_FAULT_DEGRADE macros compiled into the
/// runtime. Three actions exist:
///
///   throw    — raise fault::FaultInjected at the site
///   badalloc — raise std::bad_alloc at the site (allocation failure)
///   degrade  — make the site's HCVLIW_FAULT_DEGRADE check return true,
///              forcing that site's graceful-degradation rung
///
/// Design constraints, in order (mirroring obs/Trace.h):
///
///   - *Determinism.* Occurrence counters are kept per (site, context)
///     pair, and every site passes a context that is processed serially
///     (the program or program/loop being worked on), so the Nth hit of
///     a (site, context) pair is the same computation for any thread
///     count. Probabilistic rules draw no RNG stream: they hash
///     (seed, site, context, occurrence) — pure, replayable. While an
///     injector is armed the measurement layer bypasses its
///     ScheduleCache, so cross-program cache races can never change
///     which occurrence a site observes. With no plan armed, results
///     are bit-identical to a build without the layer.
///   - *Idle means one branch.* Every macro checks armed() — a relaxed
///     atomic load — before doing anything else; the unarmed cost is a
///     null check plus that load.
///   - *Compiled out like the tracer.* -DHCVLIW_NO_FAULT turns the
///     injector into empty inline stubs and both macros into no-ops
///     (the FaultPlan parser stays, so tools still accept plan files).
///
/// Site names are registered in fault/FaultSites.def, the one site list:
/// FaultPlan::parse refuses rules that name an unregistered site or put
/// a degrade rule on a point site, and the hcvliw_lint "fault-site" rule
/// family checks that every macro's site literal is registered, used
/// exactly once, and that no registered site is stale.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_FAULT_FAULT_H
#define HCVLIW_FAULT_FAULT_H

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#ifndef HCVLIW_NO_FAULT
#include <atomic>
#include <mutex>
#endif

namespace hcvliw {
namespace fault {

/// What an armed rule does when it fires.
enum class FaultAction { Throw, BadAlloc, Degrade };

/// When a rule fires, relative to the (site, context) occurrence count.
enum class FaultTrigger {
  Nth,   ///< exactly the N-th hit (1-based)
  Every, ///< every N-th hit (count % N == 0)
  Prob,  ///< hash(seed, site, context, count) % 100 < N
};

const char *faultActionName(FaultAction A);

/// One rule of a plan. Context "" matches any context (the occurrence
/// count consulted is still the matching (site, context) pair's own).
struct FaultRule {
  std::string Site;
  std::string Context;
  FaultTrigger Trigger = FaultTrigger::Nth;
  uint64_t N = 1; ///< Nth: 1-based index; Every: period; Prob: percent
  FaultAction Action = FaultAction::Throw;
};

/// A parsed fault plan: a seed (for Prob rules) plus an ordered rule
/// list (first matching rule fires). Text format, one directive per
/// line ('#' comments):
///
///   seed 42
///   on sched.place ctx 171.swim/loop2 occurrence 3 throw
///   on measure.config occurrence 1 badalloc
///   on part.coarsen every 2 degrade
///   on pool.job prob 25 throw
///
struct FaultPlan {
  uint64_t Seed = 0;
  std::vector<FaultRule> Rules;

  /// Parses the text form above; std::nullopt (with \p Err filled when
  /// non-null, naming the line) on malformed input, on a rule naming a
  /// site not registered in fault/FaultSites.def, and on a degrade rule
  /// at a point site (it could never fire).
  static std::optional<FaultPlan> parse(const std::string &Text,
                                        std::string *Err = nullptr);
  /// parse() over the contents of \p Path.
  static std::optional<FaultPlan> parseFile(const std::string &Path,
                                            std::string *Err = nullptr);
  /// The canonical text form (parse(str()) round-trips exactly).
  std::string str() const;
};

/// The exception a Throw-action rule raises. Carries the site so tests
/// and failure records can assert exactly which injection fired.
class FaultInjected : public std::runtime_error {
  std::string Site_;

public:
  FaultInjected(const std::string &Site, std::string_view Context,
                uint64_t Occurrence);
  const std::string &site() const { return Site_; }
};

#ifndef HCVLIW_NO_FAULT

/// The armed-plan evaluator. One per Session; thread-safe. All mutation
/// happens under one mutex — acceptable because the injector is only
/// consulted beyond the armed() branch when a plan is armed (fault
/// testing), never on the production fast path.
class FaultInjector {
  std::atomic<bool> Armed_{false};
  mutable std::mutex Mutex;
  FaultPlan Plan_;
  /// Occurrence count per "site\x1f context" pair.
  std::map<std::string, uint64_t> Counts;
  /// Fired injections per site (all actions).
  std::map<std::string, uint64_t> Fired;
  uint64_t Throws_ = 0, BadAllocs_ = 0, Degrades_ = 0;

  /// Counts the hit and returns the firing rule's action, if any.
  std::optional<FaultAction> match(const char *Site, std::string_view Ctx,
                                   bool DegradeSite, uint64_t *Occ);

public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector &) = delete;
  FaultInjector &operator=(const FaultInjector &) = delete;

  /// Arms \p P and resets every occurrence and injection counter.
  void arm(const FaultPlan &P);
  /// Disarms; counters are kept for post-run reporting.
  void disarm() { Armed_.store(false, std::memory_order_relaxed); }
  bool armed() const { return Armed_.load(std::memory_order_relaxed); }
  const FaultPlan &plan() const { return Plan_; }

  /// A throw-capable site (HCVLIW_FAULT_POINT): counts the hit; raises
  /// FaultInjected or std::bad_alloc when a Throw/BadAlloc rule fires.
  /// Degrade rules never fire here.
  void hit(const char *Site, std::string_view Ctx);
  /// A degradation site (HCVLIW_FAULT_DEGRADE): counts the hit; true
  /// when a Degrade rule fires (the caller takes its fallback rung).
  /// Throw/BadAlloc rules on a degrade site also fire here, by raising.
  bool shouldDegrade(const char *Site, std::string_view Ctx);

  uint64_t injectedThrows() const;
  uint64_t injectedBadAllocs() const;
  uint64_t injectedDegrades() const;
  uint64_t totalInjected() const;
  /// Fired injections per site name (deterministic order).
  std::map<std::string, uint64_t> injectedBySite() const;
};

/// Consults \p InjPtr (FaultInjector*, may be null) at throw-capable
/// site \p SiteName with context \p Ctx. Unarmed cost: a null check and
/// one relaxed load.
#define HCVLIW_FAULT_POINT(InjPtr, SiteName, Ctx)                            \
  do {                                                                       \
    ::hcvliw::fault::FaultInjector *FIP_ = (InjPtr);                         \
    if (FIP_ && FIP_->armed())                                               \
      FIP_->hit(SiteName, Ctx);                                              \
  } while (0)

/// True when a Degrade rule fires at \p SiteName — the caller takes its
/// degradation rung. Same unarmed cost as HCVLIW_FAULT_POINT.
#define HCVLIW_FAULT_DEGRADE(InjPtr, SiteName, Ctx)                          \
  ((InjPtr) != nullptr && (InjPtr)->armed() &&                               \
   (InjPtr)->shouldDegrade(SiteName, Ctx))

#else // HCVLIW_NO_FAULT: the injector compiles to empty stubs.

class FaultInjector {
public:
  FaultInjector() = default;
  FaultInjector(const FaultInjector &) = delete;
  FaultInjector &operator=(const FaultInjector &) = delete;
  void arm(const FaultPlan &) {}
  void disarm() {}
  bool armed() const { return false; }
  const FaultPlan &plan() const {
    static const FaultPlan Empty;
    return Empty;
  }
  void hit(const char *, std::string_view) {}
  bool shouldDegrade(const char *, std::string_view) { return false; }
  uint64_t injectedThrows() const { return 0; }
  uint64_t injectedBadAllocs() const { return 0; }
  uint64_t injectedDegrades() const { return 0; }
  uint64_t totalInjected() const { return 0; }
  std::map<std::string, uint64_t> injectedBySite() const { return {}; }
};

#define HCVLIW_FAULT_POINT(InjPtr, SiteName, Ctx)                            \
  do {                                                                       \
    (void)(InjPtr);                                                          \
  } while (0)
#define HCVLIW_FAULT_DEGRADE(InjPtr, SiteName, Ctx) (false)

#endif // HCVLIW_NO_FAULT

} // namespace fault
} // namespace hcvliw

#endif // HCVLIW_FAULT_FAULT_H
