#include <gtest/gtest.h>

#include <limits>
#include <sstream>

#include "flowspace/algebra.hpp"
#include "workload/rulegen.hpp"
#include "workload/serialize.hpp"

namespace difane {
namespace {

TEST(Serialize, PolicyRoundTripPreservesEverything) {
  const auto policy = classbench_like(400, 91);
  std::stringstream ss;
  save_policy(ss, policy);
  const auto loaded = load_policy(ss);
  ASSERT_EQ(loaded.size(), policy.size());
  for (std::size_t i = 0; i < policy.size(); ++i) {
    EXPECT_EQ(loaded.at(i).id, policy.at(i).id);
    EXPECT_EQ(loaded.at(i).priority, policy.at(i).priority);
    EXPECT_TRUE(loaded.at(i).action == policy.at(i).action);
    EXPECT_TRUE(loaded.at(i).match == policy.at(i).match) << "rule " << i;
    EXPECT_NEAR(loaded.at(i).weight, policy.at(i).weight, 1e-9);
  }
  Rng rng(92);
  EXPECT_FALSE(find_semantic_difference(policy, loaded, rng, 1000).has_value());
}

TEST(Serialize, PolicyRoundTripWithAllActionKinds) {
  RuleTable t;
  Rule a;
  a.id = 1;
  a.priority = 4;
  a.action = Action::drop();
  match_exact(a.match, Field::kIpProto, 6);
  Rule b;
  b.id = 2;
  b.priority = 3;
  b.action = Action::forward(7);
  Rule c;
  c.id = 3;
  c.priority = 2;
  c.action = Action::encap(12);
  Rule d;
  d.id = 4;
  d.priority = 1;
  d.action = Action::to_controller();
  t.add(a);
  t.add(b);
  t.add(c);
  t.add(d);
  std::stringstream ss;
  save_policy(ss, t);
  const auto loaded = load_policy(ss);
  ASSERT_EQ(loaded.size(), 4u);
  EXPECT_TRUE(loaded.find(1)->action == Action::drop());
  EXPECT_TRUE(loaded.find(2)->action == Action::forward(7));
  EXPECT_TRUE(loaded.find(3)->action == Action::encap(12));
  EXPECT_TRUE(loaded.find(4)->action == Action::to_controller());
}

TEST(Serialize, PolicyCommentsAndBlankLinesIgnored) {
  std::stringstream ss(
      "policy v1\n"
      "# a comment\n"
      "\n"
      "rule 5 10 fwd:2 0.5 ip_proto=00000110\n");
  const auto loaded = load_policy(ss);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.at(0).id, 5u);
  EXPECT_TRUE(loaded.at(0).match.matches(PacketBuilder().ip_proto(6).build()));
  EXPECT_FALSE(loaded.at(0).match.matches(PacketBuilder().ip_proto(17).build()));
}

TEST(Serialize, PolicyRejectsMalformedInput) {
  auto expect_throw = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW(load_policy(ss), std::runtime_error) << text;
  };
  expect_throw("");                                       // no header
  expect_throw("policy v2\n");                            // wrong version
  expect_throw("policy v1\nnotarule 1 2 drop 0\n");       // bad tag
  expect_throw("policy v1\nrule 1 2 explode 0\n");        // bad action
  expect_throw("policy v1\nrule 1 2 drop 0 bogus=01\n");  // bad field
  expect_throw("policy v1\nrule 1 2 drop 0 ip_proto=01\n");   // wrong width
  expect_throw("policy v1\nrule 1 2 drop 0 ip_proto=0000002q\n");  // bad char

  // Action arguments parse whole and in range, and ids are distinct; each
  // failure names its line.
  auto expect_error = [](const std::string& text, const std::string& what) {
    std::stringstream ss(text);
    try {
      load_policy(ss);
      ADD_FAILURE() << "loaded: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), what) << text;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw " << e.what() << " for: " << text;
    }
  };
  expect_error("policy v1\nrule 1 2 fwd:abc 0\n",
               "parse error at line 2: bad action argument in 'fwd:abc'");
  expect_error("policy v1\nrule 1 2 fwd:7x 0\n",
               "parse error at line 2: bad action argument in 'fwd:7x'");
  expect_error("policy v1\nrule 1 2 fwd:4294967296 0\n",
               "parse error at line 2: bad action argument in 'fwd:4294967296'");
  expect_error("policy v1\nrule 1 2 drop 0\nrule 1 1 fwd:3 0\n",
               "parse error at line 3: duplicate rule id 1");
  // Numbers parse whole and unsigned where they count: a leading minus must
  // not wrap a rule id into kInvalidRuleId, and weights are not negative.
  expect_error("policy v1\nrule -1 0 drop 1\n",
               "parse error at line 2: bad rule id '-1'");
  expect_error("policy v1\nrule 4294967295 0 drop 1\n",
               "parse error at line 2: rule id 4294967295 is reserved");
  expect_error("policy v1\nrule 4294967296 0 drop 1\n",
               "parse error at line 2: bad rule id '4294967296'");
  expect_error("policy v1\nrule 7x 0 drop 1\n",
               "parse error at line 2: bad rule id '7x'");
  expect_error("policy v1\nrule 1 0 drop -5\n",
               "parse error at line 2: negative weight");
  expect_error("policy v1\nrule 1 0 drop 0.5q\n",
               "parse error at line 2: bad weight '0.5q'");
  // The priority is one whole signed token: a digit prefix must not load as
  // the priority with the rest of the token read as the next field.
  expect_error("policy v1\nrule 1 5drop 1\n",
               "parse error at line 2: bad priority '5drop'");
  expect_error("policy v1\nrule 1 5x drop 1\n",
               "parse error at line 2: bad priority '5x'");
  expect_error("policy v1\nrule 1 2147483648 drop 1\n",
               "parse error at line 2: bad priority '2147483648'");
}

TEST(Serialize, PolicyRoundTripKeepsSignedPriorities) {
  RuleTable t;
  RuleId id = 1;
  for (const Priority priority : {std::numeric_limits<Priority>::max(), Priority{7},
                                  Priority{0}, Priority{-1},
                                  std::numeric_limits<Priority>::min()}) {
    Rule rule;
    rule.id = id++;
    rule.priority = priority;
    rule.action = Action::forward(1);
    t.add(rule);
  }
  std::stringstream ss;
  save_policy(ss, t);
  const auto loaded = load_policy(ss);
  ASSERT_EQ(loaded.size(), t.size());
  for (const auto& rule : t.rules()) {
    ASSERT_NE(loaded.find(rule.id), nullptr);
    EXPECT_EQ(loaded.find(rule.id)->priority, rule.priority) << "rule " << rule.id;
  }
}

TEST(Serialize, TraceRoundTrip) {
  const auto policy = classbench_like(100, 93);
  TrafficParams tp;
  tp.seed = 94;
  tp.duration = 0.5;
  tp.arrival_rate = 500.0;
  TrafficGenerator gen(policy, tp);
  const auto flows = gen.generate();
  ASSERT_FALSE(flows.empty());
  std::stringstream ss;
  save_trace(ss, flows);
  const auto loaded = load_trace(ss);
  ASSERT_EQ(loaded.size(), flows.size());
  for (std::size_t i = 0; i < flows.size(); ++i) {
    EXPECT_EQ(loaded[i].id, flows[i].id);
    EXPECT_NEAR(loaded[i].start, flows[i].start, 1e-9);
    EXPECT_EQ(loaded[i].packets, flows[i].packets);
    EXPECT_EQ(loaded[i].ingress_index, flows[i].ingress_index);
    EXPECT_TRUE(loaded[i].header == flows[i].header) << "flow " << i;
  }
}

TEST(Serialize, TraceRejectsMalformedInput) {
  auto expect_throw = [](const std::string& text) {
    std::stringstream ss(text);
    EXPECT_THROW(load_trace(ss), std::runtime_error) << text;
  };
  expect_throw("");
  expect_throw("trace v2\n");
  expect_throw("trace v1\nflow 1 0.5\n");               // truncated
  expect_throw("trace v1\nflow 1 0.5 3 0.001 0 abc\n"); // short hex
  // Negative timings would make a flow's packets arrive out of order.
  const std::string header(64, '0');
  expect_throw("trace v1\nflow 0 0.0012 5 -0.001 0 " + header + "\n");
  expect_throw("trace v1\nflow 0 -0.5 5 0.001 0 " + header + "\n");

  // Counts parse whole and unsigned: a leading minus must not wrap into a
  // huge count. Each failure names its line and field.
  auto expect_error = [](const std::string& text, const std::string& what) {
    std::stringstream ss(text);
    try {
      load_trace(ss);
      ADD_FAILURE() << "loaded: " << text;
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), what) << text;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw " << e.what() << " for: " << text;
    }
  };
  const auto flow_line = [&header](const std::string& fields) {
    return "trace v1\n# comment\nflow " + fields + " " + header + "\n";
  };
  expect_error(flow_line("0 0.5 -1 0.001 0"),
               "parse error at line 3: bad packets '-1'");
  expect_error(flow_line("-1 0.5 1 0.001 0"),
               "parse error at line 3: bad flow id '-1'");
  expect_error(flow_line("0 0.5 1 0.001 -1"),
               "parse error at line 3: bad ingress index '-1'");
  expect_error(flow_line("0 0.5 1 0.001 4294967296"),
               "parse error at line 3: bad ingress index '4294967296'");
  expect_error(flow_line("0 0.5s 1 0.001 0"),
               "parse error at line 3: bad start '0.5s'");
  expect_error(flow_line("0 0.5 1 1e-3x 0"),
               "parse error at line 3: bad packet_gap '1e-3x'");
  expect_error(flow_line("0 0.5 1 -0.001 0"),
               "parse error at line 3: negative packet_gap");
}

TEST(Serialize, FileRoundTripAndMissingFile) {
  const auto policy = campus_like(50, 95);
  const std::string path = "/tmp/difane_test_policy.txt";
  save_policy_file(path, policy);
  const auto loaded = load_policy_file(path);
  EXPECT_EQ(loaded.size(), policy.size());
  EXPECT_THROW(load_policy_file("/nonexistent/dir/policy.txt"), std::runtime_error);
}

}  // namespace
}  // namespace difane
