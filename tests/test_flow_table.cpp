#include <gtest/gtest.h>

#include "switchsim/flow_table.hpp"
#include "flowspace/header.hpp"

namespace difane {
namespace {

Rule rule_of(RuleId id, Priority priority, Action action = Action::drop()) {
  Rule r;
  r.id = id;
  r.priority = priority;
  r.action = action;
  return r;
}

Rule proto_rule(RuleId id, Priority priority, std::uint8_t proto, Action action) {
  Rule r = rule_of(id, priority, action);
  match_exact(r.match, Field::kIpProto, proto);
  return r;
}

TEST(FlowTable, BandOrderBeatsNumericPriority) {
  FlowTable ft(10);
  // Low-priority cache rule must still beat a high-priority partition rule.
  ft.install(rule_of(1, 1, Action::forward(1)), Band::kCache, 0.0);
  ft.install(rule_of(2, 1000, Action::encap(9)), Band::kPartition, 0.0);
  ft.install(rule_of(3, 500, Action::forward(3)), Band::kAuthority, 0.0);
  const FlowEntry* e = ft.lookup(BitVec{}, 1.0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->rule.id, 1u);
  EXPECT_EQ(e->band, Band::kCache);
  ft.remove(1, Band::kCache);
  e = ft.lookup(BitVec{}, 1.0);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->band, Band::kAuthority);
}

TEST(FlowTable, PriorityWithinBand) {
  FlowTable ft(10);
  ft.install(proto_rule(1, 10, 6, Action::forward(1)), Band::kCache, 0.0);
  ft.install(rule_of(2, 5, Action::drop()), Band::kCache, 0.0);
  const FlowEntry* e = ft.lookup(PacketBuilder().ip_proto(6).build(), 0.5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->rule.id, 1u);
  e = ft.lookup(PacketBuilder().ip_proto(17).build(), 0.5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->rule.id, 2u);
}

TEST(FlowTable, IdleTimeoutExpiresWithoutTraffic) {
  FlowTable ft(10);
  ft.install(rule_of(1, 1), Band::kCache, 0.0, /*idle=*/2.0);
  EXPECT_NE(ft.lookup(BitVec{}, 1.0), nullptr);   // refreshes last_hit to 1.0
  EXPECT_NE(ft.lookup(BitVec{}, 2.9), nullptr);   // 1.9s idle, still alive
  EXPECT_EQ(ft.lookup(BitVec{}, 5.0), nullptr);   // 2.1s idle: gone
  EXPECT_EQ(ft.size(Band::kCache), 0u);
  EXPECT_EQ(ft.stats().expirations, 1u);
}

TEST(FlowTable, HardTimeoutExpiresDespiteTraffic) {
  FlowTable ft(10);
  ft.install(rule_of(1, 1), Band::kCache, 0.0, /*idle=*/0.0, /*hard=*/1.0);
  EXPECT_NE(ft.lookup(BitVec{}, 0.5), nullptr);
  EXPECT_NE(ft.lookup(BitVec{}, 0.99), nullptr);
  EXPECT_EQ(ft.lookup(BitVec{}, 1.0), nullptr);
}

TEST(FlowTable, ProactiveBandsNeverExpire) {
  FlowTable ft(10);
  ft.install(rule_of(1, 1), Band::kAuthority, 0.0);
  ft.install(rule_of(2, 1), Band::kPartition, 0.0);
  EXPECT_EQ(ft.expire(1e9), 0u);
  EXPECT_EQ(ft.total_size(), 2u);
}

TEST(FlowTable, LruEvictionPicksColdestEntry) {
  FlowTable ft(2);
  ft.install(proto_rule(1, 10, 6, Action::drop()), Band::kCache, 0.0);
  ft.install(proto_rule(2, 10, 17, Action::drop()), Band::kCache, 0.0);
  // Touch rule 1 so rule 2 is the LRU victim.
  ft.lookup(PacketBuilder().ip_proto(6).build(), 1.0);
  ft.install(proto_rule(3, 10, 1, Action::drop()), Band::kCache, 2.0);
  EXPECT_EQ(ft.size(Band::kCache), 2u);
  EXPECT_NE(ft.find(1, Band::kCache), nullptr);
  EXPECT_EQ(ft.find(2, Band::kCache), nullptr);
  EXPECT_NE(ft.find(3, Band::kCache), nullptr);
  EXPECT_EQ(ft.stats().evictions, 1u);
}

TEST(FlowTable, ZeroCacheCapacityRejectsInstall) {
  FlowTable ft(0);
  EXPECT_FALSE(ft.install(rule_of(1, 1), Band::kCache, 0.0));
  EXPECT_EQ(ft.stats().install_rejected, 1u);
}

TEST(FlowTable, ReinstallSameIdRefreshesInPlace) {
  FlowTable ft(2);
  ft.install(rule_of(1, 1), Band::kCache, 0.0, 1.0);
  ft.install(rule_of(2, 1), Band::kCache, 0.0, 1.0);
  // Reinstall id 1 at t=0.9: no eviction, timeouts restart.
  EXPECT_TRUE(ft.install(rule_of(1, 1), Band::kCache, 0.9, 1.0));
  EXPECT_EQ(ft.size(Band::kCache), 2u);
  EXPECT_EQ(ft.stats().evictions, 0u);
  EXPECT_NE(ft.lookup(BitVec{}, 1.5), nullptr);  // id 1 alive (idle since 0.9)
}

TEST(FlowTable, CountersMonotone) {
  FlowTable ft(4);
  ft.install(rule_of(1, 1), Band::kCache, 0.0);
  ft.lookup(BitVec{}, 0.1, 100);
  ft.lookup(BitVec{}, 0.2, 200);
  const FlowEntry* e = ft.find(1, Band::kCache);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->packets, 2u);
  EXPECT_EQ(e->bytes, 300u);
  EXPECT_EQ(ft.stats().hits_per_band[0], 2u);
}

TEST(FlowTable, MissCountedWhenNothingMatches) {
  FlowTable ft(4);
  ft.install(proto_rule(1, 1, 6, Action::drop()), Band::kCache, 0.0);
  EXPECT_EQ(ft.lookup(PacketBuilder().ip_proto(17).build(), 0.1), nullptr);
  EXPECT_EQ(ft.stats().misses, 1u);
}

TEST(FlowTable, PeekDoesNotMutate) {
  FlowTable ft(4);
  ft.install(rule_of(1, 1), Band::kCache, 0.0, 1.0);
  EXPECT_NE(ft.peek(BitVec{}, 0.5), nullptr);
  EXPECT_EQ(ft.find(1, Band::kCache)->packets, 0u);
  // peek respects (but does not apply) expiry.
  EXPECT_EQ(ft.peek(BitVec{}, 5.0), nullptr);
  EXPECT_EQ(ft.size(Band::kCache), 1u);
}

TEST(FlowTable, EvictionCascadesToGuardedDependents) {
  // A protected pair: protector P and child C installed as one group (C
  // lists P as a guard). Evicting P must also remove C — otherwise C would
  // silently steal P's packets (the wildcard-caching safety rule).
  FlowTable ft(3);
  Rule protector = proto_rule(1, 100, 6, Action::drop());
  Rule child = rule_of(2, 10, Action::forward(0));
  ft.install(protector, Band::kCache, 0.0);
  ft.install(child, Band::kCache, 0.0, 0.0, 0.0, /*guards=*/{1});
  // Make the protector the LRU victim, then overflow the cache.
  ft.lookup(BitVec{}, 1.0);  // hits child (udp-side traffic)
  ft.install(proto_rule(3, 50, 17, Action::drop()), Band::kCache, 2.0);
  ft.install(proto_rule(4, 50, 1, Action::drop()), Band::kCache, 3.0);  // overflow
  // Victim was the protector (never hit); the guarded child must be gone too.
  EXPECT_EQ(ft.find(1, Band::kCache), nullptr);
  EXPECT_EQ(ft.find(2, Band::kCache), nullptr);
  EXPECT_GE(ft.stats().cascade_evictions, 1u);
}

TEST(FlowTable, GuardsStayWarmWhileDependentIsHot) {
  // Hits on a guarded entry refresh its guards: a protector that never wins
  // on its own must not idle out (and cascade the hot entry away) while the
  // entry it protects keeps seeing traffic.
  FlowTable ft(10);
  Rule protector = proto_rule(1, 100, 6, Action::drop());
  Rule child = rule_of(2, 10, Action::forward(0));
  ft.install(protector, Band::kCache, 0.0, /*idle=*/1.0);
  ft.install(child, Band::kCache, 0.0, /*idle=*/1.0, 0.0, /*guards=*/{1});
  // Only the child is hit, but the whole group stays warm.
  for (double t = 0.5; t < 3.0; t += 0.5) {
    ft.lookup(PacketBuilder().ip_proto(17).build(), t);  // udp: hits child only
  }
  EXPECT_NE(ft.find(1, Band::kCache), nullptr);
  EXPECT_NE(ft.find(2, Band::kCache), nullptr);
  // Once traffic stops, the group expires together; neither survives alone.
  ft.expire(10.0);
  EXPECT_EQ(ft.find(1, Band::kCache), nullptr);
  EXPECT_EQ(ft.find(2, Band::kCache), nullptr);
}

TEST(FlowTable, ExpiryCascadesToGuardedDependents) {
  // A guarded entry with a *longer* idle timeout than its protector: when
  // the protector finally expires, the still-alive dependent must go too.
  FlowTable ft(10);
  Rule protector = proto_rule(1, 100, 6, Action::drop());
  Rule child = rule_of(2, 10, Action::forward(0));
  ft.install(protector, Band::kCache, 0.0, /*idle=*/1.0);
  ft.install(child, Band::kCache, 0.0, /*idle=*/100.0, 0.0, /*guards=*/{1});
  ft.expire(5.0);  // protector idle 5s > 1s; child would live on its own
  EXPECT_EQ(ft.find(1, Band::kCache), nullptr);
  EXPECT_EQ(ft.find(2, Band::kCache), nullptr);  // cascaded away with it
}

TEST(FlowTable, CascadeIsTransitive) {
  FlowTable ft(10);
  ft.install(proto_rule(1, 100, 6, Action::drop()), Band::kCache, 0.0);
  ft.install(proto_rule(2, 50, 17, Action::drop()), Band::kCache, 0.0, 0.0, 0.0, {1});
  ft.install(rule_of(3, 10, Action::forward(0)), Band::kCache, 0.0, 0.0, 0.0, {2});
  ft.remove(1, Band::kCache);
  EXPECT_EQ(ft.find(2, Band::kCache), nullptr);
  EXPECT_EQ(ft.find(3, Band::kCache), nullptr);
  EXPECT_EQ(ft.stats().cascade_evictions, 2u);
}

TEST(FlowTable, CascadeSparesUnguardedEntries) {
  FlowTable ft(10);
  ft.install(proto_rule(1, 100, 6, Action::drop()), Band::kCache, 0.0);   // victim
  ft.install(proto_rule(2, 50, 17, Action::drop()), Band::kCache, 0.0);   // unrelated
  ft.install(rule_of(3, 10, Action::forward(1)), Band::kCache, 0.0, 0.0, 0.0, {2});
  ft.remove(1, Band::kCache);
  EXPECT_NE(ft.find(2, Band::kCache), nullptr);
  EXPECT_NE(ft.find(3, Band::kCache), nullptr);
  EXPECT_EQ(ft.stats().cascade_evictions, 0u);
}

// install_bulk leaves the observable state a sequence of install() calls
// leaves: same band order, same stats counters, same refresh behaviour.
// Drive both paths with interleaved priorities, duplicate-id refreshes, and
// a second batch on top of an existing band.
TEST(FlowTable, BulkInstallMatchesSequential) {
  std::vector<Rule> batch1, batch2;
  for (RuleId id = 0; id < 200; ++id) {
    // Interleave priorities so sequential inserts land all over the band.
    batch1.push_back(proto_rule(id, (id * 37) % 50, static_cast<std::uint8_t>(id % 7),
                                Action::forward(static_cast<std::uint32_t>(id % 4))));
  }
  for (RuleId id = 150; id < 350; ++id) {  // ids 150..199 refresh in place
    // Refreshes keep their priority, like a partition repoint: only the
    // action changes.
    const Priority prio = id < 200 ? (id * 37) % 50 : (id * 13) % 50;
    batch2.push_back(proto_rule(id, prio, static_cast<std::uint8_t>(id % 5),
                                Action::drop()));
  }

  FlowTable seq(10), bulk(10);
  for (const Rule& r : batch1) seq.install(r, Band::kAuthority, 1.0);
  for (const Rule& r : batch2) seq.install(r, Band::kAuthority, 2.0);

  std::vector<const Rule*> ptrs;
  for (const Rule& r : batch1) ptrs.push_back(&r);
  bulk.install_bulk(ptrs, Band::kAuthority, 1.0);
  ptrs.clear();
  for (const Rule& r : batch2) ptrs.push_back(&r);
  bulk.install_bulk(ptrs, Band::kAuthority, 2.0);

  // 200 new, then 50 refreshes in place and 150 new.
  EXPECT_EQ(bulk.stats().installs, 400u);
  EXPECT_EQ(seq.stats().installs, bulk.stats().installs);
  ASSERT_EQ(bulk.size(Band::kAuthority), 350u);
  ASSERT_EQ(seq.size(Band::kAuthority), bulk.size(Band::kAuthority));
  const auto sv = seq.entries(Band::kAuthority);
  const auto bv = bulk.entries(Band::kAuthority);
  for (std::size_t i = 0; i < sv.size(); ++i) {
    EXPECT_EQ(sv[i].rule.id, bv[i].rule.id) << "order diverges at " << i;
    EXPECT_EQ(sv[i].rule.priority, bv[i].rule.priority);
    EXPECT_EQ(sv[i].install_time, bv[i].install_time);
    EXPECT_TRUE(sv[i].rule.action == bv[i].rule.action) << "action at " << i;
  }
  for (std::uint8_t proto = 0; proto < 8; ++proto) {
    const BitVec pkt = PacketBuilder().ip_proto(proto).build();
    const FlowEntry* se = seq.lookup(pkt, 3.0);
    const FlowEntry* be = bulk.lookup(pkt, 3.0);
    ASSERT_EQ(se == nullptr, be == nullptr);
    if (se != nullptr) {
      EXPECT_EQ(se->rule.id, be->rule.id);
    }
  }
}

TEST(FlowTable, BulkInstallRejectsCacheBand) {
  FlowTable ft(10);
  const Rule r = rule_of(1, 1);
  const std::vector<const Rule*> ptrs{&r};
  EXPECT_THROW(ft.install_bulk(ptrs, Band::kCache, 0.0), contract_violation);
}

// Header memo. Each step checks lookup's winner against peek (the reference
// scan, taken first at the same instant) and how many lookups the memo
// answered without scanning the rows.
RuleId memo_step(FlowTable& ft, const BitVec& pkt, double now, std::uint64_t memo_delta) {
  const FlowEntry* ref = ft.peek(pkt, now);
  const RuleId want = ref == nullptr ? kInvalidRuleId : ref->rule.id;
  const std::uint64_t before = ft.stats().memo_hits;
  const FlowEntry* e = ft.lookup(pkt, now);
  const RuleId got = e == nullptr ? kInvalidRuleId : e->rule.id;
  EXPECT_EQ(got, want) << "lookup disagrees with peek at t=" << now;
  EXPECT_EQ(ft.stats().memo_hits - before, memo_delta) << "memo hits at t=" << now;
  return got;
}

const BitVec kTcp = PacketBuilder().ip_proto(6).build();
const BitVec kUdp = PacketBuilder().ip_proto(17).build();

TEST(FlowTableMemo, RepeatedHeaderIsServedByTheMemo) {
  FlowTable ft(10);
  ft.install(proto_rule(1, 10, 6, Action::forward(1)), Band::kCache, 0.0);
  EXPECT_EQ(memo_step(ft, kTcp, 1.0, 0), 1u);  // first sight: scanned
  EXPECT_EQ(memo_step(ft, kTcp, 1.1, 1), 1u);
  EXPECT_EQ(memo_step(ft, kTcp, 1.2, 1), 1u);
  EXPECT_EQ(memo_step(ft, kUdp, 1.3, 0), kInvalidRuleId);  // another header
  EXPECT_EQ(memo_step(ft, kUdp, 1.4, 1), kInvalidRuleId);  // its miss, memoized
  EXPECT_EQ(ft.find(1, Band::kCache)->packets, 3u);  // counters as without it
}

TEST(FlowTableMemo, NotConsultedWithoutWildcardRows) {
  FlowTable ft(10);
  Rule micro = rule_of(1, 10, Action::forward(1));
  micro.match = exact_pattern(kTcp);
  ft.install(micro, Band::kCache, 0.0);
  EXPECT_EQ(memo_step(ft, kTcp, 1.0, 0), 1u);
  EXPECT_EQ(memo_step(ft, kTcp, 1.1, 0), 1u);  // the exact hash answers
}

TEST(FlowTableMemo, OnlyAMatchingLinkAheadOfTheWinnerTakesOver) {
  FlowTable ft(10);
  ft.install(proto_rule(1, 10, 6, Action::forward(1)), Band::kCache, 0.0);
  EXPECT_EQ(memo_step(ft, kTcp, 1.0, 0), 1u);
  ft.install(proto_rule(2, 5, 6, Action::forward(2)), Band::kCache, 1.0);  // behind
  EXPECT_EQ(memo_step(ft, kTcp, 1.1, 1), 1u);
  ft.install(proto_rule(3, 20, 17, Action::forward(3)), Band::kCache, 1.1);  // no match
  EXPECT_EQ(memo_step(ft, kTcp, 1.2, 1), 1u);
  ft.install(proto_rule(4, 20, 6, Action::forward(4)), Band::kCache, 1.2);  // ahead
  EXPECT_EQ(memo_step(ft, kTcp, 1.3, 1), 4u);
  EXPECT_EQ(memo_step(ft, kTcp, 1.4, 1), 4u);
  // A link ahead that left again before the lookup is still in the log.
  ft.install(proto_rule(5, 30, 6, Action::forward(5)), Band::kCache, 1.4);
  ft.remove(5, Band::kCache);
  EXPECT_EQ(memo_step(ft, kTcp, 1.5, 1), 4u);
}

TEST(FlowTableMemo, RemovedWinnerFallsBackToTheShadowedEntry) {
  FlowTable ft(10);
  ft.install(rule_of(1, 1, Action::forward(1)), Band::kCache, 0.0);  // matches all
  ft.install(proto_rule(2, 10, 6, Action::forward(2)), Band::kCache, 0.0);
  EXPECT_EQ(memo_step(ft, kTcp, 1.0, 0), 2u);
  EXPECT_EQ(memo_step(ft, kTcp, 1.1, 1), 2u);
  ft.remove(2, Band::kCache);
  EXPECT_EQ(memo_step(ft, kTcp, 1.2, 0), 1u);
  EXPECT_EQ(memo_step(ft, kTcp, 1.3, 1), 1u);
}

TEST(FlowTableMemo, EvictedWinnerIsRescanned) {
  FlowTable ft(2);
  ft.install(rule_of(99, 1, Action::encap(9)), Band::kPartition, 0.0);
  ft.install(proto_rule(1, 10, 6, Action::forward(1)), Band::kCache, 0.0);
  ft.install(proto_rule(2, 10, 17, Action::forward(2)), Band::kCache, 0.0);
  EXPECT_EQ(memo_step(ft, kTcp, 1.0, 0), 1u);
  EXPECT_EQ(memo_step(ft, kTcp, 2.0, 1), 1u);
  EXPECT_EQ(memo_step(ft, kUdp, 3.0, 0), 2u);  // entry 1 is now the LRU victim
  ft.install(proto_rule(3, 10, 1, Action::forward(3)), Band::kCache, 4.0);
  ASSERT_EQ(ft.find(1, Band::kCache), nullptr);
  EXPECT_EQ(memo_step(ft, kTcp, 5.0, 0), 99u);
  EXPECT_EQ(memo_step(ft, kTcp, 5.1, 1), 99u);
}

TEST(FlowTableMemo, ExpiredWinnerIsRescanned) {
  FlowTable ft(10);
  ft.install(rule_of(1, 1, Action::forward(1)), Band::kCache, 0.0);
  ft.install(proto_rule(2, 10, 6, Action::forward(2)), Band::kCache, 0.0, /*idle=*/1.0);
  EXPECT_EQ(memo_step(ft, kTcp, 0.5, 0), 2u);
  EXPECT_EQ(memo_step(ft, kTcp, 0.9, 1), 2u);
  EXPECT_EQ(memo_step(ft, kTcp, 2.5, 0), 1u);  // the sweep took entry 2
  EXPECT_EQ(ft.stats().expirations, 1u);
}

TEST(FlowTableMemo, RefreshThatMovesTheWinnersMatchIsRescanned) {
  FlowTable ft(10);
  ft.install(rule_of(1, 1, Action::forward(1)), Band::kCache, 0.0);
  ft.install(proto_rule(2, 10, 6, Action::forward(2)), Band::kCache, 0.0);
  EXPECT_EQ(memo_step(ft, kTcp, 1.0, 0), 2u);
  ft.install(proto_rule(2, 10, 6, Action::forward(3)), Band::kCache, 1.0);  // same match
  EXPECT_EQ(memo_step(ft, kTcp, 1.1, 1), 2u);
  ft.install(proto_rule(2, 10, 17, Action::forward(2)), Band::kCache, 1.1);
  EXPECT_EQ(memo_step(ft, kTcp, 1.2, 0), 1u);
  EXPECT_EQ(memo_step(ft, kUdp, 1.3, 0), 2u);
}

TEST(FlowTableMemo, NoCacheMatchThenAMatchingLink) {
  FlowTable ft(10);
  ft.install(rule_of(99, 1, Action::encap(9)), Band::kPartition, 0.0);
  ft.install(proto_rule(1, 10, 6, Action::forward(1)), Band::kCache, 0.0);
  EXPECT_EQ(memo_step(ft, kUdp, 1.0, 0), 99u);
  EXPECT_EQ(memo_step(ft, kUdp, 1.1, 1), 99u);  // "no cache match", memoized
  ft.install(proto_rule(2, 5, 17, Action::forward(2)), Band::kCache, 1.1);
  EXPECT_EQ(memo_step(ft, kUdp, 1.2, 1), 2u);
}

TEST(FlowTableMemo, MoreLinksThanTheLogHoldsForceARescan) {
  constexpr std::uint64_t k = FlowTable::kLinkLog;
  FlowTable ft(3 * k);
  ft.install(proto_rule(1, 10, 6, Action::forward(1)), Band::kCache, 0.0);
  EXPECT_EQ(memo_step(ft, kTcp, 1.0, 0), 1u);
  RuleId id = 100;
  // Exactly k links, the last one a matching entry ahead of the winner:
  // the log still holds every one of them.
  for (std::uint64_t i = 0; i + 1 < k; ++i) {
    ft.install(proto_rule(id++, 5, 17, Action::drop()), Band::kCache, 1.0);
  }
  ft.install(proto_rule(2, 20, 6, Action::forward(2)), Band::kCache, 1.0);
  EXPECT_EQ(memo_step(ft, kTcp, 1.1, 1), 2u);
  // k + 1 links, the first one ahead of the winner: it has left the log.
  ft.install(proto_rule(3, 30, 6, Action::forward(3)), Band::kCache, 1.1);
  for (std::uint64_t i = 0; i < k; ++i) {
    ft.install(proto_rule(id++, 5, 17, Action::drop()), Band::kCache, 1.1);
  }
  EXPECT_EQ(memo_step(ft, kTcp, 1.2, 0), 3u);
  EXPECT_EQ(memo_step(ft, kTcp, 1.3, 1), 3u);
}

TEST(FlowTableMemo, ClearedCacheLeavesThePartitionEntryAsWinner) {
  FlowTable ft(10);
  ft.install(rule_of(99, 1, Action::encap(9)), Band::kPartition, 0.0);
  ft.install(proto_rule(1, 10, 6, Action::forward(1)), Band::kCache, 0.0);
  ft.install(proto_rule(2, 5, 17, Action::forward(2)), Band::kCache, 0.0);
  EXPECT_EQ(memo_step(ft, kTcp, 1.0, 0), 1u);
  EXPECT_EQ(memo_step(ft, kTcp, 1.1, 1), 1u);
  ft.clear_band(Band::kCache);
  // One non-matching row brings the memo back while entry 1's old slot
  // stays free: its memo entry must not outlive the wipe.
  ft.install(proto_rule(3, 5, 17, Action::forward(3)), Band::kCache, 1.1);
  EXPECT_EQ(memo_step(ft, kTcp, 1.2, 0), 99u);
  EXPECT_EQ(memo_step(ft, kTcp, 1.3, 1), 99u);
}

TEST(FlowTable, ClearBand) {
  FlowTable ft(4);
  ft.install(rule_of(1, 1), Band::kPartition, 0.0);
  ft.install(rule_of(2, 1), Band::kCache, 0.0);
  ft.clear_band(Band::kPartition);
  EXPECT_EQ(ft.size(Band::kPartition), 0u);
  EXPECT_EQ(ft.size(Band::kCache), 1u);
}

}  // namespace
}  // namespace difane
