// Serial-vs-parallel differential gates for sharded farm execution
// (DESIGN.md §12). The tentpole claim is that the lockstep coordinator
// makes worker threading invisible: for a fixed seed, the merged
// observable event stream (obs::format_event lines across all shards)
// is byte-identical whether the shards run inline on one thread or on a
// pool — and two different seeds provably diverge, so "identical" is
// not "empty or constant". A teardown test covers the multi-threaded
// incarnation of the PR 3 use-after-free class: destroying the farm
// mid-flight, with cross-shard frames parked in mailboxes and pending
// closures on every shard loop.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/sharded_farm.h"
#include "extnet/extnet.h"
#include "malware/spambot.h"
#include "util/strings.h"

namespace gq {
namespace {

using util::Ipv4Addr;

constexpr Ipv4Addr kCcAddr(50, 8, 207, 91);

// The Grum spambot workload from bench/s1_scalability.cc, one subfarm
// per shard: inmates auto-infect, poll the C&C for a spam task
// (port 80, FORWARD — and the C&C host lives only on shard 0, so every
// other shard's poll crosses the bridged external segment), then spam
// port 25 (REFLECT into the shard-local banner sink).
void build_spam_shard(core::Farm& farm, std::size_t shard) {
  auto& sub = farm.add_subfarm(util::format("Shard%zu", shard));
  sub.add_catchall_sink();
  sinks::SmtpSinkConfig sink_config;
  sink_config.port = 2526;
  sub.add_smtp_sink(sink_config, "bannersmtpsink");
  sub.set_autoinfect({Ipv4Addr(10, 9, 8, 7), 6543});
  sub.containment().samples().add("grum.000.exe");
  sub.catalog().register_prototype(
      "grum.*", [](const std::string&, util::Rng& rng) {
        mal::SpambotConfig config;
        config.family = "grum";
        config.c2 = {kCcAddr, 80};
        config.send_interval = util::seconds(2);
        return std::make_unique<mal::SpambotBehavior>(config, rng.fork());
      });
  sub.configure_containment(
      util::format("[VLAN %d-%d]\nDecider = Grum\nInfection = grum.*\n",
                   sub.router().config().vlan_first,
                   sub.router().config().vlan_last));
  for (int i = 0; i < 2; ++i) sub.create_inmate(inm::HostingKind::kVm);
}

struct RunResult {
  std::vector<std::string> lines;
  std::uint64_t cc_requests = 0;
  std::uint64_t cross_shard_messages = 0;
  std::uint64_t overflow_dropped = 0;  // Frames lost to full mailboxes.
  unsigned effective_threads = 0;
};

RunResult run_spam_farm(std::uint64_t seed, unsigned threads,
                        std::size_t shards, util::Duration duration) {
  core::ShardedFarmOptions options;
  options.shards = shards;
  options.threads = threads;
  options.seed = seed;
  core::ShardedFarm farm(options, build_spam_shard);
  // The C&C anchor is homed on shard 0 and declared after the farm so
  // its HttpServer (which references the host stack) dies first.
  auto& cc_host = farm.shard(0).add_external_host("cc", kCcAddr);
  ext::CcServer cc(cc_host, 80);
  mal::SpamTask task;
  task.targets = {{Ipv4Addr(64, 12, 88, 7), 25}};
  cc.set_document("/c2/tasks", task.serialize());

  farm.run_for(duration);

  RunResult result;
  result.lines = farm.merged_event_lines();
  result.cc_requests = cc.requests();
  result.cross_shard_messages = farm.lockstep_stats().messages;
  result.overflow_dropped = farm.lockstep_stats().overflow_dropped;
  result.effective_threads = farm.threads();
  return result;
}

std::string joined(const std::vector<std::string>& lines) {
  std::string out;
  for (const auto& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

TEST(ShardedFarm, SerialAndParallelStreamsAreBitIdentical) {
  constexpr std::uint64_t kSeed = 0x5EED01;
  const auto duration = util::seconds(90);
  const RunResult serial = run_spam_farm(kSeed, 1, 4, duration);

  // The workload actually exercised what the gate claims to cover:
  // events flowed, remote shards reached the shard-0 C&C, and frames
  // crossed the bridges.
  ASSERT_FALSE(serial.lines.empty());
  EXPECT_GT(serial.cc_requests, 0u);
  EXPECT_GT(serial.cross_shard_messages, 0u);
  // A full mailbox drops frames silently; equal loss on both sides would
  // still compare equal, so the loss itself must be zero.
  EXPECT_EQ(serial.overflow_dropped, 0u);

  for (unsigned threads : {2u, 4u}) {
    const RunResult parallel = run_spam_farm(kSeed, threads, 4, duration);
    EXPECT_EQ(parallel.effective_threads, threads);
    EXPECT_EQ(parallel.overflow_dropped, 0u) << threads << " threads";
    EXPECT_EQ(parallel.cc_requests, serial.cc_requests);
    EXPECT_EQ(parallel.cross_shard_messages, serial.cross_shard_messages);
    ASSERT_EQ(joined(parallel.lines), joined(serial.lines))
        << "observable stream diverged at " << threads << " threads";
  }
}

// Mailbox overflow is loss, so it must be visible without a debugger:
// the farm publishes the lockstep drop count as shard.overflow_dropped.
TEST(ShardedFarm, MailboxOverflowIsPublished) {
  core::ShardedFarmOptions options;
  options.shards = 2;
  options.mailbox_capacity = 1;  // Any epoch with 2+ frames on a link drops.
  core::ShardedFarm farm(options, build_spam_shard);
  auto& cc_host = farm.shard(0).add_external_host("cc", kCcAddr);
  ext::CcServer cc(cc_host, 80);
  const auto* dropped =
      farm.metrics().find_counter("shard.overflow_dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->value(), 0u);
  farm.run_for(util::seconds(30));
  farm.run_for(util::seconds(30));
  EXPECT_GT(farm.lockstep_stats().overflow_dropped, 0u);
  EXPECT_EQ(dropped->value(), farm.lockstep_stats().overflow_dropped);
}

TEST(ShardedFarm, DistinctSeedsProvablyDiverge) {
  const auto duration = util::seconds(90);
  const RunResult a = run_spam_farm(0x5EED01, 1, 2, duration);
  const RunResult b = run_spam_farm(0x0DD5EE, 1, 2, duration);
  ASSERT_FALSE(a.lines.empty());
  ASSERT_FALSE(b.lines.empty());
  // Without this, SerialAndParallelStreamsAreBitIdentical could pass
  // vacuously on a stream that ignores the seed entirely.
  EXPECT_NE(joined(a.lines), joined(b.lines));
}

TEST(ShardedFarm, TeardownMidFlightDropsCrossThreadClosures) {
  // Stop inside the spam cadence: TCP handshakes, retransmit timers,
  // and bridge mailbox frames are all live when the farm dies. The
  // assertion is the absence of use-after-free / data races — this test
  // exists to run under asan and the tsan lane.
  core::ShardedFarmOptions options;
  options.shards = 3;
  options.threads = 2;
  options.seed = 0x7EAF;
  auto farm =
      std::make_unique<core::ShardedFarm>(options, build_spam_shard);
  auto& cc_host = farm->shard(0).add_external_host("cc", kCcAddr);
  ext::CcServer cc(cc_host, 80);
  mal::SpamTask task;
  task.targets = {{Ipv4Addr(64, 12, 88, 7), 25}};
  cc.set_document("/c2/tasks", task.serialize());
  // 35s = just past the 25s VM boot: DHCP binds done, auto-infection
  // and the first C&C polls/spam flows mid-handshake.
  farm->run_for(util::seconds(35));
  EXPECT_GT(farm->event_count(), 0u);
  farm.reset();
}

TEST(ShardedFarm, TeardownWithoutRunning) {
  core::ShardedFarmOptions options;
  options.shards = 2;
  options.threads = 2;
  core::ShardedFarm farm(options, build_spam_shard);
  // Builders scheduled power-on and DHCP closures that never run.
}

}  // namespace
}  // namespace gq
