// Tests for the scenario engine: parameter parsing, registry behavior
// (lookup, listing, duplicate rejection), and the built-in scenario set.
#include <gtest/gtest.h>

#include <sstream>

#include "scenario/scenario.h"

namespace erasmus::scenario {
namespace {

TEST(ParamMap, ParsesKeyValueTokens) {
  const auto params =
      ParamMap::from_args({"devices=100", "seed=42", "name=fleet"});
  EXPECT_EQ(params.get_u64("devices", 0), 100u);
  EXPECT_EQ(params.get_u64("seed", 0), 42u);
  EXPECT_EQ(params.get_str("name", ""), "fleet");
  EXPECT_EQ(params.get_u64("absent", 7), 7u);
  EXPECT_TRUE(params.has("devices"));
  EXPECT_FALSE(params.has("absent"));
}

TEST(ParamMap, RejectsMalformedTokens) {
  EXPECT_THROW(ParamMap::from_args({"devices"}), std::invalid_argument);
  EXPECT_THROW(ParamMap::from_args({"=5"}), std::invalid_argument);
}

TEST(ParamMap, TypedGettersValidate) {
  const auto params = ParamMap::from_args(
      {"n=12x", "f=0.25", "b1=yes", "b2=off", "bad=maybe", "e=40mJ"});
  EXPECT_THROW(params.get_u64("n", 0), std::invalid_argument);
  EXPECT_DOUBLE_EQ(params.get_double("f", 0.0), 0.25);
  EXPECT_TRUE(params.get_bool("b1", false));
  EXPECT_FALSE(params.get_bool("b2", true));
  EXPECT_THROW(params.get_bool("bad", false), std::invalid_argument);
  EXPECT_DOUBLE_EQ(params.get_energy("e", {}).millijoules(), 40.0);

  // Non-finite numbers are no number a knob can mean: strtod accepts
  // them (and overflows to inf), so the getters must refuse, naming the
  // value.
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity", "1e400"}) {
    const auto p = ParamMap::from_args({std::string("x=") + bad});
    try {
      p.get_double("x", 0.0);
      ADD_FAILURE() << "'" << bad << "' accepted as a number";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << e.what();
    }
  }
  for (const char* bad : {"infJ", "nanmJ", "-infJ", "1e308kJ", "-5J"}) {
    const auto p = ParamMap::from_args({std::string("battery=") + bad});
    try {
      p.get_energy("battery", {});
      ADD_FAILURE() << "'" << bad << "' accepted as an energy";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(bad), std::string::npos)
          << e.what();
    }
  }
}

TEST(ParamMap, ParsesHumanFriendlyDurations) {
  using sim::Duration;
  const auto params = ParamMap::from_args(
      {"tm=10m", "tc=90s", "horizon=2h", "blip=250ms", "week=7d",
       "frac=1.5h"});
  EXPECT_EQ(params.get_duration("tm", Duration{}), Duration::minutes(10));
  EXPECT_EQ(params.get_duration("tc", Duration{}), Duration::seconds(90));
  EXPECT_EQ(params.get_duration("horizon", Duration{}), Duration::hours(2));
  EXPECT_EQ(params.get_duration("blip", Duration{}), Duration::millis(250));
  EXPECT_EQ(params.get_duration("week", Duration{}), Duration::hours(24 * 7));
  EXPECT_EQ(params.get_duration("frac", Duration{}), Duration::minutes(90));
  EXPECT_EQ(params.get_duration("absent", Duration::minutes(3)),
            Duration::minutes(3));
  // "min" spelling is accepted too.
  EXPECT_EQ(parse_duration("5min"), Duration::minutes(5));
}

TEST(ParamMap, RejectsBadDurations) {
  using sim::Duration;
  for (const char* bad : {"10", "m", "", "10q", "-5m", "10 m", "nanm"}) {
    const auto params = ParamMap::from_args({std::string("tm=") + bad});
    EXPECT_THROW(params.get_duration("tm", Duration{}),
                 std::invalid_argument)
        << "'" << bad << "' must be rejected";
  }
}

TEST(ParamMap, ParsesDurationLists) {
  using sim::Duration;
  const auto list = parse_duration_list("5m,10m,1h");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], Duration::minutes(5));
  EXPECT_EQ(list[2], Duration::hours(1));
  EXPECT_THROW(parse_duration_list(""), std::invalid_argument);
  EXPECT_THROW(parse_duration_list("5m,"), std::invalid_argument);
  EXPECT_THROW(parse_duration_list("5m,,10m"), std::invalid_argument);
}

TEST(ParamMap, UnknownKeysAgainstSpecs) {
  const std::vector<ParamSpec> specs = {{"devices", "10", ""},
                                        {"seed", "1", ""}};
  const auto params = ParamMap::from_args({"devices=5", "sed=42"});
  const auto unknown = params.unknown_keys(specs);
  ASSERT_EQ(unknown.size(), 1u);
  EXPECT_EQ(unknown[0], "sed");
}

class DummyScenario : public Scenario {
 public:
  explicit DummyScenario(std::string name) : name_(std::move(name)) {}
  std::string name() const override { return name_; }
  std::string description() const override { return "dummy"; }
  int run(const ParamMap&, MetricsSink&) const override { return 0; }

 private:
  std::string name_;
};

TEST(ScenarioRegistry, FindAndListSorted) {
  ScenarioRegistry registry;
  registry.add(std::make_unique<DummyScenario>("zeta"));
  registry.add(std::make_unique<DummyScenario>("alpha"));
  ASSERT_EQ(registry.size(), 2u);
  ASSERT_NE(registry.find("alpha"), nullptr);
  EXPECT_EQ(registry.find("alpha")->name(), "alpha");
  EXPECT_EQ(registry.find("nope"), nullptr);
  const auto list = registry.list();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0]->name(), "alpha");
  EXPECT_EQ(list[1]->name(), "zeta");
}

TEST(ScenarioRegistry, RejectsDuplicateName) {
  ScenarioRegistry registry;
  registry.add(std::make_unique<DummyScenario>("fleet"));
  EXPECT_THROW(registry.add(std::make_unique<DummyScenario>("fleet")),
               std::invalid_argument);
  // The failed add must not have clobbered the original.
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_NE(registry.find("fleet"), nullptr);
}

TEST(ScenarioRegistry, RejectsNullAndEmptyName) {
  ScenarioRegistry registry;
  EXPECT_THROW(registry.add(nullptr), std::invalid_argument);
  EXPECT_THROW(registry.add(std::make_unique<DummyScenario>("")),
               std::invalid_argument);
}

// The global registry carries the builtin set (this test binary links the
// builtin object library, as erasmus_run does).
TEST(ScenarioRegistry, BuiltinsRegistered) {
  auto& registry = ScenarioRegistry::instance();
  EXPECT_GE(registry.size(), 9u);
  for (const char* name :
       {"quickstart", "device_lifecycle", "malware_hunt", "plant_sensor",
        "swarm_patrol", "campaign_sweep", "mixed_tm_fleet", "churn_fleet",
        "mixed_arch_fleet"}) {
    EXPECT_NE(registry.find(name), nullptr) << name;
  }
}

TEST(ScenarioRegistry, BuiltinsDeclareTheirParams) {
  for (const Scenario* s : ScenarioRegistry::instance().list()) {
    EXPECT_FALSE(s->description().empty()) << s->name();
    for (const auto& spec : s->param_specs()) {
      EXPECT_FALSE(spec.key.empty()) << s->name();
      EXPECT_FALSE(spec.help.empty()) << s->name() << "." << spec.key;
    }
  }
}

// End-to-end: the cheapest builtin runs to completion through a sink.
TEST(ScenarioRegistry, QuickstartRunsClean) {
  const Scenario* s = ScenarioRegistry::instance().find("quickstart");
  ASSERT_NE(s, nullptr);
  std::ostringstream out;
  JsonSink sink(out);
  sink.begin_run(s->name());
  EXPECT_EQ(s->run(ParamMap{}, sink), 0);
  sink.end_run();
  EXPECT_NE(out.str().find("\"trustworthy\": true"), std::string::npos);
}

}  // namespace
}  // namespace erasmus::scenario
