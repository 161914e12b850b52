// Property tests for the allocator's warm-started hot path (DESIGN.md "Hot
// path & incrementality"):
//
//  1. Equivalence — over hundreds of seeded random instances, the workspace
//     overload returns bit-identical results to the cold one-shot solve for
//     all three solvers, whether or not groups were prepare()d, and an
//     unchanged or dirty-subset re-solve on the incremental path does too.
//  2. Zero allocation — once warm, steady-state Allocator::solve and a
//     steady-state AllocationSession cycle (solving or not) perform no heap
//     allocation at all, verified with counting global operator new/delete
//     overrides.
//  3. Cross-version pinning — a 200-seed hash of every solver's outputs on
//     non-QoS instances equals the value recorded before soft-QoS cost rows
//     were added: groups without a SoftQos row run bit-identical arithmetic
//     to the pre-QoS solver.
//  4. QoS equivalence — instances with slack-priced SoftQos rows keep the
//     cold/warm/incremental bit-equivalence, and a row that prices nothing
//     (all candidates meet min_rate, or slack_weight = 0) leaves the result
//     bit-identical to the same instance without the row.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "src/common/rng.hpp"
#include "src/harp/allocation_session.hpp"
#include "src/harp/allocator.hpp"
#include "src/platform/hardware.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every path through global operator new bumps a counter
// the zero-alloc test reads before/after a burst of steady-state solves.
// Aligned (std::align_val_t) variants are deliberately not overridden — the
// default aligned new/delete pair stays consistent, and none of the solver's
// containers are over-aligned, so plain new sees every allocation of
// interest.
// ---------------------------------------------------------------------------

namespace {

std::atomic<std::uint64_t> g_allocation_count{0};

void* counted_alloc(std::size_t size) noexcept {
  if (size == 0) size = 1;
  void* ptr = std::malloc(size);
  if (ptr != nullptr) g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  return ptr;
}

}  // namespace

// GCC's -Wmismatched-new-delete pairs call sites with these replacement
// operators after inlining and mistakes malloc/free for a mismatch; the
// replacements are a matched set, so silence the false positive.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  void* ptr = counted_alloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new[](std::size_t size) {
  void* ptr = counted_alloc(size);
  if (ptr == nullptr) throw std::bad_alloc();
  return ptr;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_alloc(size);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }
void operator delete[](void* ptr, const std::nothrow_t&) noexcept { std::free(ptr); }

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace harp::core {
namespace {

// ---------------------------------------------------------------------------
// Random instance generation
// ---------------------------------------------------------------------------

platform::HardwareDescription three_type_hw() {
  platform::HardwareDescription hw;
  hw.name = "test-3type";
  platform::CoreType big;
  big.name = "big";
  big.core_count = 6;
  big.smt_width = 2;
  big.freq_ghz = 3.0;
  big.base_gips = 12.0;
  big.active_power_w = 4.0;
  big.thread_power_w = 1.0;
  big.idle_power_w = 0.3;
  platform::CoreType mid = big;
  mid.name = "mid";
  mid.core_count = 8;
  mid.smt_width = 1;
  mid.base_gips = 7.0;
  mid.active_power_w = 2.0;
  platform::CoreType little = big;
  little.name = "little";
  little.core_count = 4;
  little.smt_width = 1;
  little.base_gips = 3.0;
  little.active_power_w = 0.8;
  hw.core_types = {big, mid, little};
  return hw;
}

platform::HardwareDescription pick_hw(harp::Rng& rng) {
  switch (rng.uniform_int(0, 2)) {
    case 0: return platform::raptor_lake();
    case 1: return platform::odroid_xu3e();
    default: return three_type_hw();
  }
}

std::vector<AllocationGroup> random_groups(const platform::HardwareDescription& hw,
                                           harp::Rng& rng, int max_groups, int max_candidates) {
  const int num_types = static_cast<int>(hw.core_types.size());
  const int num_groups = rng.uniform_int(1, max_groups);
  std::vector<AllocationGroup> groups;
  groups.reserve(static_cast<std::size_t>(num_groups));
  for (int g = 0; g < num_groups; ++g) {
    AllocationGroup group;
    group.app_name = "app" + std::to_string(g);
    const int num_candidates = rng.uniform_int(1, max_candidates);
    for (int c = 0; c < num_candidates; ++c) {
      std::vector<int> threads(static_cast<std::size_t>(num_types), 0);
      int total = 0;
      for (int t = 0; t < num_types; ++t) {
        const platform::CoreType& type = hw.core_types[static_cast<std::size_t>(t)];
        // Bias demands low so multi-app instances are usually repairable.
        int limit = std::max(1, type.core_count * type.smt_width / 2);
        threads[static_cast<std::size_t>(t)] = rng.uniform_int(0, limit);
        total += threads[static_cast<std::size_t>(t)];
      }
      if (total == 0) threads[0] = 1;
      OperatingPoint point;
      point.erv = platform::ExtendedResourceVector::from_threads(hw, threads);
      point.nfc.utility = 1.0;
      point.nfc.power_w = rng.uniform(0.5, 20.0);
      group.candidates.push_back(point);
      group.costs.push_back(rng.uniform(0.1, 10.0));
    }
    groups.push_back(std::move(group));
  }
  return groups;
}

std::vector<const AllocationGroup*> pointers_to(const std::vector<AllocationGroup>& groups) {
  std::vector<const AllocationGroup*> ptrs;
  ptrs.reserve(groups.size());
  for (const AllocationGroup& group : groups) ptrs.push_back(&group);
  return ptrs;
}

const std::vector<std::uint32_t> kNoDirty;
const std::vector<std::uint32_t> kFirstDirty(1, 0);

/// Incremental for the Lagrangian solver; greedy/exhaustive always run full.
SolveMode expected_dirty_mode(SolverKind kind) {
  return kind == SolverKind::kLagrangian ? SolveMode::kIncremental : SolveMode::kFull;
}

void expect_identical(const AllocationResult& actual, const AllocationResult& expected,
                      std::uint64_t seed, const char* what) {
  EXPECT_EQ(actual.feasible, expected.feasible) << what << " seed=" << seed;
  EXPECT_EQ(actual.selection, expected.selection) << what << " seed=" << seed;
  // Exact (bit-level) equality: the warm path must run the same arithmetic.
  EXPECT_EQ(actual.total_cost, expected.total_cost) << what << " seed=" << seed;
  ASSERT_EQ(actual.allocations.size(), expected.allocations.size()) << what << " seed=" << seed;
  for (std::size_t g = 0; g < actual.allocations.size(); ++g)
    EXPECT_EQ(actual.allocations[g].cores, expected.allocations[g].cores)
        << what << " seed=" << seed << " group=" << g;
}

// ---------------------------------------------------------------------------
// Equivalence properties
// ---------------------------------------------------------------------------

class WarmColdEquivalence : public ::testing::TestWithParam<SolverKind> {};

TEST_P(WarmColdEquivalence, MatchesColdSolveOnRandomInstances) {
  const SolverKind kind = GetParam();
  // The exhaustive reference is exponential: cap its instances small.
  const int max_groups = kind == SolverKind::kExhaustive ? 5 : 12;
  const int max_candidates = kind == SolverKind::kExhaustive ? 5 : 10;
  int feasible_seen = 0;
  int co_allocation_seen = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    harp::Rng rng(seed * 7919u);
    platform::HardwareDescription hw = pick_hw(rng);
    std::vector<AllocationGroup> groups = random_groups(hw, rng, max_groups, max_candidates);
    Allocator allocator(hw, kind);

    AllocationResult cold = allocator.solve(groups);
    (cold.feasible ? feasible_seen : co_allocation_seen) += 1;

    // Warm path on prepared groups: same instance, bit-identical result.
    std::vector<AllocationGroup> prepared = groups;
    for (AllocationGroup& group : prepared)
      group.prepare(static_cast<int>(hw.core_types.size()));
    std::vector<const AllocationGroup*> ptrs = pointers_to(prepared);
    SolveWorkspace ws;
    AllocationResult warm;
    allocator.solve(ptrs, ws, warm);
    EXPECT_EQ(ws.last_mode(), SolveMode::kFull) << "seed=" << seed;
    expect_identical(warm, cold, seed, "warm-prepared");

    // Unchanged re-solve on the incremental path (nothing dirty): identical.
    AllocationResult unchanged;
    allocator.solve(ptrs, kNoDirty, /*structure_changed=*/false, ws, unchanged);
    EXPECT_EQ(ws.last_mode(), expected_dirty_mode(kind)) << "seed=" << seed;
    expect_identical(unchanged, cold, seed, "unchanged");

    // Unprepared groups fall back to workspace-built rows: same result.
    std::vector<const AllocationGroup*> raw_ptrs = pointers_to(groups);
    SolveWorkspace unprepared_ws;
    AllocationResult unprepared;
    allocator.solve(raw_ptrs, unprepared_ws, unprepared);
    expect_identical(unprepared, cold, seed, "warm-unprepared");

    // A cost perturbation listed dirty: the re-solve follows the new instance.
    prepared[0].costs[0] += 0.25;
    AllocationResult nudged;
    allocator.solve(ptrs, kFirstDirty, /*structure_changed=*/false, ws, nudged);
    EXPECT_EQ(ws.last_mode(), expected_dirty_mode(kind)) << "seed=" << seed;
    AllocationResult nudged_cold = allocator.solve(prepared);
    expect_identical(nudged, nudged_cold, seed, "nudged");
  }
  // The sweep must exercise both outcomes, or the equivalence claim is weak.
  EXPECT_GT(feasible_seen, 20);
  EXPECT_GT(co_allocation_seen, 5);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, WarmColdEquivalence,
                         ::testing::Values(SolverKind::kLagrangian, SolverKind::kGreedy,
                                           SolverKind::kExhaustive),
                         [](const ::testing::TestParamInfo<SolverKind>& info) {
                           switch (info.param) {
                             case SolverKind::kLagrangian: return "Lagrangian";
                             case SolverKind::kGreedy: return "Greedy";
                             case SolverKind::kExhaustive: return "Exhaustive";
                           }
                           return "Unknown";
                         });

// ---------------------------------------------------------------------------
// Cross-version pinning & QoS rows
// ---------------------------------------------------------------------------

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t w) {
  return (h ^ w) * 1099511628211ull;
}

// Hashes recorded by running this exact sweep before the soft-QoS cost-row
// indirection existed. If a refactor of the solver's cost handling changes
// any selection, feasibility flag, or total-cost *bit pattern* on instances
// without QoS rows, this fails — the QoS extension must be invisible to
// non-QoS groups.
TEST(PinnedNonQosBehaviour, TwoHundredSeedHashesMatchPreQosSolver) {
  struct KindSpec {
    SolverKind kind;
    std::uint64_t expected;
    int max_groups;
    int max_candidates;
  };
  const KindSpec kinds[] = {
      {SolverKind::kLagrangian, 0xe8a878809dbf539cull, 12, 10},
      {SolverKind::kGreedy, 0x0950f976a1eb2578ull, 12, 10},
      {SolverKind::kExhaustive, 0xe124577fa6a3ced0ull, 5, 5},
  };
  for (const KindSpec& ks : kinds) {
    std::uint64_t h = 14695981039346656037ull;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
      harp::Rng rng(seed * 7919u);
      platform::HardwareDescription hw = pick_hw(rng);
      std::vector<AllocationGroup> groups =
          random_groups(hw, rng, ks.max_groups, ks.max_candidates);
      Allocator allocator(hw, ks.kind);
      AllocationResult result = allocator.solve(groups);
      h = fnv_mix(h, result.feasible ? 1u : 0u);
      for (std::size_t s : result.selection) h = fnv_mix(h, static_cast<std::uint64_t>(s));
      std::uint64_t bits = 0;
      std::memcpy(&bits, &result.total_cost, sizeof(bits));
      h = fnv_mix(h, bits);
    }
    EXPECT_EQ(h, ks.expected) << "solver kind " << static_cast<int>(ks.kind);
  }
}

/// Attach a slack-priced SoftQos row to every other group: candidate "rates"
/// drawn in [0, 1] (the qos_utility scale), min_rate set so some candidates
/// fall short, and a weight large enough to actually steer selections.
void attach_qos_rows(std::vector<AllocationGroup>& groups, harp::Rng& rng) {
  for (std::size_t g = 0; g < groups.size(); g += 2) {
    AllocationGroup::SoftQos row;
    row.min_rate = rng.uniform(0.3, 0.95);
    row.slack_weight = rng.uniform(1.0, 300.0);
    for (std::size_t c = 0; c < groups[g].candidates.size(); ++c)
      row.rates.push_back(rng.uniform(0.0, 1.0));
    groups[g].qos = std::move(row);
  }
}

class QosRowEquivalence : public ::testing::TestWithParam<SolverKind> {};

TEST_P(QosRowEquivalence, ColdWarmReplayBitIdenticalWithSoftQosRows) {
  const SolverKind kind = GetParam();
  const int max_groups = kind == SolverKind::kExhaustive ? 5 : 12;
  const int max_candidates = kind == SolverKind::kExhaustive ? 5 : 10;
  int priced_selections = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    harp::Rng rng(seed * 15485863u);
    platform::HardwareDescription hw = pick_hw(rng);
    std::vector<AllocationGroup> groups = random_groups(hw, rng, max_groups, max_candidates);
    attach_qos_rows(groups, rng);
    Allocator allocator(hw, kind);

    AllocationResult cold = allocator.solve(groups);
    if (cold.feasible) {
      // Count instances where the QoS pricing is live (a selected candidate
      // sits below its row's min_rate), so the sweep provably exercises the
      // penalised path.
      for (std::size_t g = 0; g < groups.size(); ++g) {
        if (!groups[g].qos.has_value()) continue;
        if (groups[g].qos->rates[cold.selection[g]] < groups[g].qos->min_rate)
          ++priced_selections;
      }
    }

    std::vector<AllocationGroup> prepared = groups;
    for (AllocationGroup& group : prepared)
      group.prepare(static_cast<int>(hw.core_types.size()));
    std::vector<const AllocationGroup*> ptrs = pointers_to(prepared);
    SolveWorkspace ws;
    AllocationResult warm;
    allocator.solve(ptrs, ws, warm);
    EXPECT_EQ(ws.last_mode(), SolveMode::kFull) << "seed=" << seed;
    expect_identical(warm, cold, seed, "qos-warm");

    AllocationResult unchanged;
    allocator.solve(ptrs, kNoDirty, /*structure_changed=*/false, ws, unchanged);
    EXPECT_EQ(ws.last_mode(), expected_dirty_mode(kind)) << "seed=" << seed;
    expect_identical(unchanged, cold, seed, "qos-unchanged");

    // A min_rate above every candidate's rate re-prices the whole group:
    // listed dirty, its *effective* costs are rebound, so the re-solve
    // matches a cold solve of the differently-priced QoS instance.
    if (prepared[0].qos.has_value()) {
      prepared[0].qos->min_rate = 2.0;  // rates are in [0, 1]: all penalised
      AllocationResult nudged;
      allocator.solve(ptrs, kFirstDirty, /*structure_changed=*/false, ws, nudged);
      EXPECT_EQ(ws.last_mode(), expected_dirty_mode(kind)) << "seed=" << seed;
      AllocationResult nudged_cold = allocator.solve(prepared);
      expect_identical(nudged, nudged_cold, seed, "qos-nudged");
    }
  }
  EXPECT_GT(priced_selections, 50);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, QosRowEquivalence,
                         ::testing::Values(SolverKind::kLagrangian, SolverKind::kGreedy,
                                           SolverKind::kExhaustive),
                         [](const ::testing::TestParamInfo<SolverKind>& info) {
                           switch (info.param) {
                             case SolverKind::kLagrangian: return "Lagrangian";
                             case SolverKind::kGreedy: return "Greedy";
                             case SolverKind::kExhaustive: return "Exhaustive";
                           }
                           return "Unknown";
                         });

TEST(QosRowEquivalenceEdge, InertRowIsBitIdenticalToNoRow) {
  // A row whose penalty is identically zero (every candidate meets min_rate,
  // or slack_weight = 0) must not change a single output bit relative to the
  // same instance without the row.
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    harp::Rng rng(seed * 32452843u);
    platform::HardwareDescription hw = pick_hw(rng);
    std::vector<AllocationGroup> bare = random_groups(hw, rng, 8, 6);
    Allocator allocator(hw, SolverKind::kLagrangian);
    AllocationResult expected = allocator.solve(bare);

    std::vector<AllocationGroup> satisfied = bare;
    for (AllocationGroup& group : satisfied) {
      AllocationGroup::SoftQos row;
      row.min_rate = 0.5;
      row.slack_weight = 1000.0;
      row.rates.assign(group.candidates.size(), 1.0);  // all meet the target
      group.qos = std::move(row);
    }
    expect_identical(allocator.solve(satisfied), expected, seed, "satisfied-row");

    std::vector<AllocationGroup> weightless = bare;
    for (AllocationGroup& group : weightless) {
      AllocationGroup::SoftQos row;
      row.min_rate = 0.9;
      row.slack_weight = 0.0;  // priced at zero
      row.rates.assign(group.candidates.size(), 0.1);
      group.qos = std::move(row);
    }
    expect_identical(allocator.solve(weightless), expected, seed, "weightless-row");
  }
}

TEST(WorkspaceReuse, OneWorkspaceAcrossChangingInstances) {
  // A single workspace driven through 50 different instances (the RM's real
  // usage pattern) must match a fresh cold solve at every step.
  SolveWorkspace ws;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    harp::Rng rng(seed * 104729u);
    platform::HardwareDescription hw = pick_hw(rng);
    std::vector<AllocationGroup> groups = random_groups(hw, rng, 8, 6);
    for (AllocationGroup& group : groups)
      group.prepare(static_cast<int>(hw.core_types.size()));
    Allocator allocator(hw, SolverKind::kLagrangian);
    ws.invalidate();  // retargeting to a new Allocator (different hardware)
    AllocationResult warm;
    allocator.solve(pointers_to(groups), ws, warm);
    AllocationResult cold = allocator.solve(groups);
    expect_identical(warm, cold, seed, "reused-ws");
  }
}

// ---------------------------------------------------------------------------
// Dirty-subset incremental solves
// ---------------------------------------------------------------------------

/// Shape-preserving mutation of one group: always reprices one candidate and
/// optionally redraws one candidate's resource vector (re-prepared so the
/// bound usage rows see it). The candidate count never changes — dirty-subset
/// clean-state reuse requires a stable shape, and shape changes are covered
/// by the structural path anyway.
void mutate_group(const platform::HardwareDescription& hw, AllocationGroup& group,
                  harp::Rng& rng, bool mutate_rows) {
  const std::size_t c = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<int>(group.costs.size()) - 1));
  group.costs[c] += rng.uniform(0.05, 1.5);
  if (mutate_rows) {
    const int num_types = static_cast<int>(hw.core_types.size());
    std::vector<int> threads(static_cast<std::size_t>(num_types), 0);
    int total = 0;
    for (int t = 0; t < num_types; ++t) {
      const platform::CoreType& type = hw.core_types[static_cast<std::size_t>(t)];
      int limit = std::max(1, type.core_count * type.smt_width / 2);
      threads[static_cast<std::size_t>(t)] = rng.uniform_int(0, limit);
      total += threads[static_cast<std::size_t>(t)];
    }
    if (total == 0) threads[0] = 1;
    group.candidates[c].erv = platform::ExtendedResourceVector::from_threads(hw, threads);
    group.prepare(num_types);
  }
}

class DirtySubsetEquivalence : public ::testing::TestWithParam<SolverKind> {};

TEST_P(DirtySubsetEquivalence, MatchesFreshColdSolveOnMutatedInstances) {
  const SolverKind kind = GetParam();
  const int max_groups = kind == SolverKind::kExhaustive ? 5 : 12;
  const int max_candidates = kind == SolverKind::kExhaustive ? 5 : 10;
  std::uint64_t incremental_solves_seen = 0;
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    harp::Rng rng(seed * 48611u);
    platform::HardwareDescription hw = pick_hw(rng);
    std::vector<AllocationGroup> groups = random_groups(hw, rng, max_groups, max_candidates);
    for (AllocationGroup& group : groups)
      group.prepare(static_cast<int>(hw.core_types.size()));
    std::vector<const AllocationGroup*> ptrs = pointers_to(groups);
    const std::size_t n = groups.size();
    Allocator allocator(hw, kind);
    SolveWorkspace ws;
    AllocationResult out;
    allocator.solve(ptrs, ws, out);  // structural first solve seeds the cache

    // Flip one group.
    std::vector<std::uint32_t> dirty;
    const std::size_t one =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
    mutate_group(hw, groups[one], rng, seed % 2 == 0);
    dirty.assign(1, static_cast<std::uint32_t>(one));
    allocator.solve(ptrs, dirty, /*structure_changed=*/false, ws, out);
    if (kind == SolverKind::kLagrangian) {
      EXPECT_EQ(ws.last_mode(), SolveMode::kIncremental) << "seed=" << seed;
      EXPECT_EQ(ws.last_rescanned_groups(), 1u) << "seed=" << seed;
      // Iteration 1 always replays (λ starts at zero in both trajectories).
      EXPECT_GE(ws.last_sync_iterations(), 1) << "seed=" << seed;
    }
    expect_identical(out, allocator.solve(groups), seed, "dirty-one");

    // Flip a k-subset (ascending by construction; never empty).
    dirty.clear();
    for (std::size_t g = 0; g < n; ++g)
      if (rng.uniform_int(0, 2) == 0 || (dirty.empty() && g + 1 == n))
        dirty.push_back(static_cast<std::uint32_t>(g));
    for (std::uint32_t g : dirty) mutate_group(hw, groups[g], rng, g % 2 == 0);
    allocator.solve(ptrs, dirty, /*structure_changed=*/false, ws, out);
    if (kind == SolverKind::kLagrangian) {
      EXPECT_EQ(ws.last_rescanned_groups(), dirty.size()) << "seed=" << seed;
    }
    expect_identical(out, allocator.solve(groups), seed, "dirty-k");

    // Flip every group: the dirty path with a full dirty set must still
    // match — it degenerates to rescanning everything under the replayed λ.
    dirty.resize(n);
    for (std::size_t g = 0; g < n; ++g) {
      dirty[g] = static_cast<std::uint32_t>(g);
      mutate_group(hw, groups[g], rng, g % 2 == 1);
    }
    allocator.solve(ptrs, dirty, /*structure_changed=*/false, ws, out);
    expect_identical(out, allocator.solve(groups), seed, "dirty-all");

    // Spuriously dirty (listed but unchanged): the dirty groups are
    // rescanned, λ follows the cached trajectory, and the bits are the same.
    allocator.solve(ptrs, dirty, /*structure_changed=*/false, ws, out);
    if (kind == SolverKind::kLagrangian) {
      EXPECT_EQ(ws.last_mode(), SolveMode::kIncremental) << "seed=" << seed;
      EXPECT_EQ(ws.last_rescanned_groups(), n) << "seed=" << seed;
      EXPECT_GE(ws.last_sync_iterations(), 1) << "seed=" << seed;
    }
    expect_identical(out, allocator.solve(groups), seed, "dirty-spurious");

    incremental_solves_seen += ws.incremental_solves();
  }
  // Every dirty solve of the sweep must have taken the incremental path for
  // the Lagrangian solver (4 per seed); the others always run full.
  if (kind == SolverKind::kLagrangian)
    EXPECT_EQ(incremental_solves_seen, 800u);
  else
    EXPECT_EQ(incremental_solves_seen, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, DirtySubsetEquivalence,
                         ::testing::Values(SolverKind::kLagrangian, SolverKind::kGreedy,
                                           SolverKind::kExhaustive),
                         [](const ::testing::TestParamInfo<SolverKind>& info) {
                           switch (info.param) {
                             case SolverKind::kLagrangian: return "Lagrangian";
                             case SolverKind::kGreedy: return "Greedy";
                             case SolverKind::kExhaustive: return "Exhaustive";
                           }
                           return "Unknown";
                         });

// ---------------------------------------------------------------------------
// Zero-allocation steady state
// ---------------------------------------------------------------------------

class SteadyStateAllocations : public ::testing::TestWithParam<SolverKind> {};

TEST_P(SteadyStateAllocations, SolveIsHeapAllocationFree) {
  platform::HardwareDescription hw = platform::raptor_lake();
  const int num_types = static_cast<int>(hw.core_types.size());

  // A modest feasible instance with well-separated costs, so the tiny cost
  // nudges below change the instance without ever flipping a selection
  // (stable shapes ⇒ all vector capacities reach steady state in warm-up).
  std::vector<AllocationGroup> groups;
  for (int g = 0; g < 4; ++g) {
    AllocationGroup group;
    group.app_name = "app" + std::to_string(g);
    for (int c = 0; c < 4; ++c) {
      OperatingPoint point;
      point.erv = platform::ExtendedResourceVector::from_threads(hw, {1 + c, g % 2});
      point.nfc.utility = 1.0;
      group.candidates.push_back(point);
      group.costs.push_back(1.0 + 2.0 * c + 0.25 * g);
    }
    group.prepare(num_types);
    groups.push_back(std::move(group));
  }

  Allocator allocator(hw, GetParam());  // no tracer: the hot path stays pure
  std::vector<const AllocationGroup*> ptrs = pointers_to(groups);
  SolveWorkspace ws;
  AllocationResult out;

  // Warm-up: full solves with the exact access pattern of the measured loop.
  for (int cycle = 0; cycle < 9; ++cycle) {
    if (cycle < 8) groups[0].costs[0] += 1e-9;
    allocator.solve(ptrs, ws, out);
    ASSERT_EQ(ws.last_mode(), SolveMode::kFull);
  }
  ASSERT_TRUE(out.feasible);

  const std::uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (int cycle = 0; cycle < 50; ++cycle) {
    groups[0].costs[0] += 1e-9;  // a changed instance
    allocator.solve(ptrs, ws, out);
    allocator.solve(ptrs, ws, out);  // the unchanged instance, solved again
  }
  const std::uint64_t delta = g_allocation_count.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(delta, 0u) << "steady-state solve allocated " << delta << " times in 100 cycles";
  EXPECT_TRUE(out.feasible);
}

INSTANTIATE_TEST_SUITE_P(AllSolvers, SteadyStateAllocations,
                         ::testing::Values(SolverKind::kLagrangian, SolverKind::kGreedy,
                                           SolverKind::kExhaustive),
                         [](const ::testing::TestParamInfo<SolverKind>& info) {
                           switch (info.param) {
                             case SolverKind::kLagrangian: return "Lagrangian";
                             case SolverKind::kGreedy: return "Greedy";
                             case SolverKind::kExhaustive: return "Exhaustive";
                           }
                           return "Unknown";
                         });

TEST(SteadyStateAllocationsDirty, IncrementalSolveIsHeapAllocationFree) {
  // The dirty-subset path adds trajectory buffers (λ rows, pick rows) to the
  // workspace; like every other scratch vector they must reach steady state
  // during warm-up and never allocate again.
  platform::HardwareDescription hw = platform::raptor_lake();
  const int num_types = static_cast<int>(hw.core_types.size());
  std::vector<AllocationGroup> groups;
  for (int g = 0; g < 4; ++g) {
    AllocationGroup group;
    group.app_name = "app" + std::to_string(g);
    for (int c = 0; c < 4; ++c) {
      OperatingPoint point;
      point.erv = platform::ExtendedResourceVector::from_threads(hw, {1 + c, g % 2});
      point.nfc.utility = 1.0;
      group.candidates.push_back(point);
      group.costs.push_back(1.0 + 2.0 * c + 0.25 * g);
    }
    group.prepare(num_types);
    groups.push_back(std::move(group));
  }

  Allocator allocator(hw, SolverKind::kLagrangian);
  std::vector<const AllocationGroup*> ptrs = pointers_to(groups);
  std::vector<std::uint32_t> dirty(1, 0);
  SolveWorkspace ws;
  AllocationResult out;

  // The first solve has no clean state to reuse and runs full; every later
  // one is incremental, spuriously dirty or not.
  for (int cycle = 0; cycle < 8; ++cycle) {
    groups[0].costs[0] += 1e-9;
    allocator.solve(ptrs, dirty, /*structure_changed=*/false, ws, out);
  }
  allocator.solve(ptrs, dirty, /*structure_changed=*/false, ws, out);
  ASSERT_EQ(ws.last_mode(), SolveMode::kIncremental);
  ASSERT_TRUE(out.feasible);

  const std::uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  for (int cycle = 0; cycle < 50; ++cycle) {
    groups[0].costs[0] += 1e-9;  // dirty for real: forces an incremental solve
    allocator.solve(ptrs, dirty, /*structure_changed=*/false, ws, out);
    allocator.solve(ptrs, dirty, /*structure_changed=*/false, ws, out);  // spuriously dirty
  }
  const std::uint64_t delta = g_allocation_count.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(delta, 0u) << "dirty-path solve allocated " << delta << " times in 100 cycles";
  EXPECT_EQ(ws.last_mode(), SolveMode::kIncremental);
  EXPECT_EQ(ws.incremental_solves(), 108u);
  EXPECT_TRUE(out.feasible);
}

TEST(SteadyStateAllocationsSession, SessionCycleIsHeapAllocationFree) {
  // The RM's steady state through AllocationSession: a resubmission cycle
  // (one group rebuilt → incremental solve) and a no-change cycle (same ids,
  // nothing rebuilt → no solver call). Neither may allocate once the id and
  // group vectors reached capacity.
  platform::HardwareDescription hw = platform::raptor_lake();
  const int num_types = static_cast<int>(hw.core_types.size());
  std::vector<AllocationGroup> groups;
  for (int g = 0; g < 4; ++g) {
    AllocationGroup group;
    group.app_name = "app" + std::to_string(g);
    for (int c = 0; c < 4; ++c) {
      OperatingPoint point;
      point.erv = platform::ExtendedResourceVector::from_threads(hw, {1 + c, g % 2});
      point.nfc.utility = 1.0;
      group.candidates.push_back(point);
      group.costs.push_back(1.0 + 2.0 * c + 0.25 * g);
    }
    group.prepare(num_types);
    groups.push_back(std::move(group));
  }

  Allocator allocator(hw, SolverKind::kLagrangian);
  AllocationSession session(nullptr, nullptr);  // no sinks: the hot path stays pure
  auto cycle = [&](bool first_rebuilt) {
    session.begin(groups.size(), 0.0);
    for (std::size_t g = 0; g < groups.size(); ++g)
      session.add(100 + g, groups[g], g == 0 && first_rebuilt);
    bool solved = session.solve(allocator);
    session.end();
    return solved;
  };

  for (int warm = 0; warm < 8; ++warm) {
    groups[0].costs[0] += 1e-9;
    ASSERT_TRUE(cycle(true));
  }
  ASSERT_FALSE(cycle(false));
  ASSERT_TRUE(session.result().feasible);

  const std::uint64_t before = g_allocation_count.load(std::memory_order_relaxed);
  int solved = 0;
  for (int round = 0; round < 50; ++round) {
    groups[0].costs[0] += 1e-9;  // a resubmission: app 100's group rebuilt
    solved += cycle(true) ? 1 : 0;
    solved += cycle(false) ? 1 : 0;  // nothing changed: no solver call
  }
  const std::uint64_t delta = g_allocation_count.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(delta, 0u) << "session cycle allocated " << delta << " times in 100 cycles";
  EXPECT_EQ(solved, 50);
  EXPECT_TRUE(session.result().feasible);
}

}  // namespace
}  // namespace harp::core
