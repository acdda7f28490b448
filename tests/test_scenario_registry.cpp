// Tests for the scenario engine: parameter parsing, registry behavior
// (lookup, listing, duplicate rejection), and the built-in scenario set.
#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/scenario.h"

namespace erasmus::scenario {
namespace {

// A map over `args` whose specs declare each given key with an empty
// default: for the parser cases, where only given values are read.
ParamMap given(const std::vector<std::string>& args) {
  std::vector<ParamSpec> specs;
  for (const std::string& arg : args) {
    specs.push_back({arg.substr(0, arg.find('=')), "", "test knob"});
  }
  return ParamMap::from_args(args, specs);
}

// `what` names every part, each as the error prints it.
void expect_names(const std::string& what,
                  const std::vector<std::string>& parts) {
  for (const std::string& part : parts) {
    EXPECT_NE(what.find(part), std::string::npos) << what;
  }
}

TEST(ParamMap, ParsesKeyValueTokens) {
  const auto params = ParamMap::from_args(
      {"devices=100", "name=fleet", "devices=120"},
      {{"devices", "10", ""}, {"seed", "42", ""}, {"name", "", ""}});
  EXPECT_EQ(params.get_u64("devices"), 120u) << "the last value wins";
  EXPECT_EQ(params.get_str("name"), "fleet");
  EXPECT_EQ(params.get_u64("seed"), 42u) << "absent: the spec default";
  // has() is true only for keys given, never for one read by default.
  EXPECT_TRUE(params.has("devices"));
  EXPECT_FALSE(params.has("seed"));
}

// The CLI's typo check: a token without '=' is refused, and every key no
// spec declares is named in one error, not only the first.
TEST(ParamMap, FromArgsRejectsMalformedAndUndeclaredKeys) {
  const std::vector<ParamSpec> specs = {{"devices", "10", ""},
                                        {"seed", "1", ""}};
  EXPECT_THROW(ParamMap::from_args({"devices"}, specs),
               std::invalid_argument);
  EXPECT_THROW(ParamMap::from_args({"=5"}, specs), std::invalid_argument);
  EXPECT_NO_THROW(ParamMap::from_args({"devices=5", "seed=2"}, specs));
  try {
    ParamMap::from_args({"devices=5", "sed=42", "thread=2", "sed=1"}, specs);
    ADD_FAILURE() << "undeclared keys accepted";
  } catch (const std::invalid_argument& e) {
    expect_names(e.what(), {"'sed'", "'thread'"});
    EXPECT_EQ(std::string(e.what()).find("devices"), std::string::npos)
        << e.what();
  }
}

// The spec is the only default: an absent key reads its default text
// through the parser a given value goes through, so a malformed default
// fails as loudly as a malformed value, naming the key.
TEST(ParamMap, AbsentKeysReadTheirSpecDefault) {
  using sim::Duration;
  const auto params = ParamMap::from_args(
      {}, {{"tm", "30m", ""},
           {"n", "7", ""},
           {"f", "0.25", ""},
           {"b", "on", ""},
           {"e", "40mJ", ""},
           {"s", "smartplus", ""},
           {"bad_tm", "30", ""},
           {"bad_n", "12x", ""},
           {"bad_e", "", ""}});
  EXPECT_EQ(params.get_duration("tm"), Duration::minutes(30));
  EXPECT_EQ(params.get_u64("n"), 7u);
  EXPECT_DOUBLE_EQ(params.get_double("f"), 0.25);
  EXPECT_TRUE(params.get_bool("b"));
  EXPECT_DOUBLE_EQ(params.get_energy("e").millijoules(), 40.0);
  EXPECT_EQ(params.get_str("s"), "smartplus");
  for (const char* key : {"tm", "n", "f", "b", "e", "s"}) {
    EXPECT_FALSE(params.has(key)) << key;
  }

  const auto throws_naming = [](auto read, const char* key) {
    try {
      read();
      ADD_FAILURE() << "malformed default of '" << key << "' accepted";
    } catch (const std::invalid_argument& e) {
      expect_names(e.what(), {std::string("'") + key + "'"});
    }
  };
  throws_naming([&] { params.get_duration("bad_tm"); }, "bad_tm");
  throws_naming([&] { params.get_u64("bad_n"); }, "bad_n");
  throws_naming([&] { params.get_energy("bad_e"); }, "bad_e");
}

// Reading a key no spec declares is a bug in the scenario, not a user
// error: std::logic_error naming the key, never the invalid_argument a
// bad value gets, and never a quiet fallback.
TEST(ParamMap, ReadingAnUndeclaredKeyThrowsLogicError) {
  const auto params = ParamMap::from_args({"devices=5"},
                                          {{"devices", "10", ""}});
  const std::vector<std::function<void()>> reads = {
      [&] { params.get_str("absent"); },
      [&] { params.get_u64("absent"); },
      [&] { params.get_u64_at_most("absent", 9); },
      [&] { params.get_double("absent"); },
      [&] { params.get_bool("absent"); },
      [&] { params.get_duration("absent"); },
      [&] { params.get_energy("absent"); },
      [&] { params.has("absent"); },
  };
  for (const auto& read : reads) {
    try {
      read();
      ADD_FAILURE() << "an undeclared key was read";
    } catch (const std::invalid_argument& e) {
      ADD_FAILURE() << "undeclared read reported as a bad value: "
                    << e.what();
    } catch (const std::logic_error& e) {
      expect_names(e.what(), {"'absent'"});
    }
  }
  EXPECT_THROW(ParamMap{}.get_u64("devices"), std::logic_error);
}

TEST(ParamMap, TypedGettersValidate) {
  const auto params = given(
      {"n=12x", "f=0.25", "b1=yes", "b2=off", "bad=maybe", "e=40mJ"});
  EXPECT_THROW(params.get_u64("n"), std::invalid_argument);
  EXPECT_DOUBLE_EQ(params.get_double("f"), 0.25);
  EXPECT_TRUE(params.get_bool("b1"));
  EXPECT_FALSE(params.get_bool("b2"));
  EXPECT_THROW(params.get_bool("bad"), std::invalid_argument);
  EXPECT_DOUBLE_EQ(params.get_energy("e").millijoules(), 40.0);

  // Non-finite numbers are no number a knob can mean: strtod accepts
  // them (and overflows to inf), so the getters must refuse, naming the
  // value.
  for (const char* bad : {"nan", "NaN", "inf", "-inf", "infinity", "1e400"}) {
    const auto p = given({std::string("x=") + bad});
    try {
      p.get_double("x");
      ADD_FAILURE() << "'" << bad << "' accepted as a number";
    } catch (const std::invalid_argument& e) {
      expect_names(e.what(), {bad});
    }
  }
  for (const char* bad : {"infJ", "nanmJ", "-infJ", "1e308kJ", "-5J"}) {
    const auto p = given({std::string("battery=") + bad});
    try {
      p.get_energy("battery");
      ADD_FAILURE() << "'" << bad << "' accepted as an energy";
    } catch (const std::invalid_argument& e) {
      expect_names(e.what(), {bad});
    }
  }

  // A bounded integer knob refuses a value past its type instead of
  // wrapping, naming the key, the value and the largest accepted value;
  // the bound holds for a spec default too.
  const auto bounded = ParamMap::from_args(
      {"ttl=255", "big=256"},
      {{"ttl", "8", ""}, {"big", "8", ""}, {"wide", "300", ""}});
  EXPECT_EQ(bounded.get_u64_at_most("ttl", 255), 255u);
  for (const auto& [key, value] :
       {std::pair{"big", "256"}, std::pair{"wide", "300"}}) {
    try {
      bounded.get_u64_at_most(key, 255);
      ADD_FAILURE() << key << " accepted over a bound of 255";
    } catch (const std::invalid_argument& e) {
      expect_names(e.what(), {std::string("'") + key + "'", value, "255"});
    }
  }
  EXPECT_EQ(kMaxDays, 213503u) << "24 h x days must fit the ns clock";
}

TEST(ParamMap, ParsesHumanFriendlyDurations) {
  using sim::Duration;
  const auto params = given({"tm=10m", "tc=90s", "horizon=2h", "blip=250ms",
                             "week=7d", "frac=1.5h"});
  EXPECT_EQ(params.get_duration("tm"), Duration::minutes(10));
  EXPECT_EQ(params.get_duration("tc"), Duration::seconds(90));
  EXPECT_EQ(params.get_duration("horizon"), Duration::hours(2));
  EXPECT_EQ(params.get_duration("blip"), Duration::millis(250));
  EXPECT_EQ(params.get_duration("week"), Duration::hours(24 * 7));
  EXPECT_EQ(params.get_duration("frac"), Duration::minutes(90));
  // "min" spelling is accepted too.
  EXPECT_EQ(parse_duration("5min"), Duration::minutes(5));
}

TEST(ParamMap, RejectsBadDurations) {
  for (const char* bad : {"10", "m", "", "10q", "-5m", "10 m", "nanm"}) {
    const auto params = given({std::string("tm=") + bad});
    EXPECT_THROW(params.get_duration("tm"), std::invalid_argument)
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

// Integer knobs that used to wrap silently (ttl=256 flooded with TTL 0,
// k=4294967297 collected one record, days=213504 simulated 25 minutes,
// aggregate_stride=258 elected heads at stride 2) fail before the run,
// naming the key, the value and the largest value the knob accepts.
TEST(ScenarioRegistry, WrappingIntegerKnobsAreRejected) {
  struct Case {
    const char* scenario;
    std::vector<std::string> args;
    const char* key;
    const char* value;
    const char* max;
  };
  const std::vector<Case> cases = {
      {"swarm_relay", {"ttl=256"}, "ttl", "256", "255"},
      {"swarm_relay", {"ttl=264"}, "ttl", "264", "255"},
      {"swarm_relay", {"retries=4294967296"}, "retries", "4294967296",
       "2147483647"},
      {"swarm_relay", {"k=4294967297"}, "k", "4294967297", "4294967295"},
      {"mixed_arch_fleet", {"k=4294967297"}, "k", "4294967297",
       "4294967295"},
      {"swarm_relay", {"aggregate_stride=256"}, "aggregate_stride", "256",
       "255"},
      {"swarm_relay", {"sybil_reports=4294967296"}, "sybil_reports",
       "4294967296", "4294967295"},
      {"device_lifecycle", {"k=4294967297"}, "k", "4294967297",
       "4294967295"},
      {"plant_sensor", {"days=213504"}, "days", "213504", "213503"},
      {"malware_hunt", {"days=213504"}, "days", "213504", "213503"},
      {"malware_hunt", {"aware_days=213504"}, "aware_days", "213504",
       "213503"},
  };
  for (const Case& c : cases) {
    const Scenario* s = ScenarioRegistry::instance().find(c.scenario);
    ASSERT_NE(s, nullptr) << c.scenario;
    std::ostringstream out;
    JsonSink sink(out);
    try {
      s->run(ParamMap::from_args(c.args, s->param_specs()), sink);
      ADD_FAILURE() << c.scenario << " " << c.args[0] << " accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      for (const char* part : {c.key, c.value, c.max}) {
        EXPECT_NE(what.find(part), std::string::npos)
            << c.scenario << " " << c.args[0] << ": " << what;
      }
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
  EXPECT_EQ(s->run(ParamMap::from_args({}, s->param_specs()), sink), 0);
  sink.end_run();
  EXPECT_NE(out.str().find("\"trustworthy\": true"), std::string::npos);
}

}  // namespace
}  // namespace erasmus::scenario
