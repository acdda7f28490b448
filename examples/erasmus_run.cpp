// erasmus_run: the unified scenario CLI.
//
//   erasmus_run list
//   erasmus_run describe <scenario>
//   erasmus_run run <scenario> [key=value ...]
//
// Every workload in the library is a registered Scenario (see
// src/scenario/). `run` accepts scenario parameters as key=value tokens
// plus reserved keys and flags:
//
//   out=<path>       write metrics there; .json selects the JSON sink,
//                    anything else CSV. Default: CSV to stdout.
//   --trace=<path>   record a deterministic flight-recorder trace of the
//                    run; .jsonl writes one event per line, anything else
//                    Chrome trace-event JSON (open in Perfetto /
//                    chrome://tracing).
//   --trace-filter=<subsystems>
//                    comma-separated categories to record (default all;
//                    `describe` lists them).
//
// Exit code is the scenario's own (0 = success / expected property held).
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "scenario/scenario.h"

using namespace erasmus::scenario;

namespace {

int cmd_list(bool names_only) {
  const auto scenarios = ScenarioRegistry::instance().list();
  if (names_only) {
    // One bare name per line: stable output for scripts/CI loops.
    for (const Scenario* s : scenarios) {
      std::printf("%s\n", s->name().c_str());
    }
    return 0;
  }
  std::printf("%zu registered scenarios:\n\n", scenarios.size());
  for (const Scenario* s : scenarios) {
    std::printf("  %-18s %s\n", s->name().c_str(), s->description().c_str());
  }
  std::printf("\nrun one with: erasmus_run run <name> [key=value ...]\n");
  return 0;
}

int cmd_describe(const std::string& name) {
  const Scenario* s = ScenarioRegistry::instance().find(name);
  if (s == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (see: erasmus_run list)\n",
                 name.c_str());
    return 2;
  }
  std::printf("%s: %s\n\nparameters:\n", s->name().c_str(),
              s->description().c_str());
  for (const auto& spec : s->param_specs()) {
    std::printf("  %-16s (default %-6s) %s\n", spec.key.c_str(),
                spec.default_value.c_str(), spec.help.c_str());
  }
  std::printf("  %-16s (default %-6s) %s\n", "out", "-",
              "metrics file; .json = JSON sink, else CSV (default: CSV to "
              "stdout)");
  std::printf("  %-16s (default %-6s) %s\n", "--trace=PATH", "-",
              "flight-recorder trace; .jsonl = JSONL, else Chrome "
              "trace-event JSON");
  std::printf("  %-16s (default %-6s) trace categories: %s\n",
              "--trace-filter=L", "all",
              erasmus::obs::subsystem_names().c_str());
  return 0;
}

int cmd_run(const std::string& name, const std::vector<std::string>& args) {
  const Scenario* s = ScenarioRegistry::instance().find(name);
  if (s == nullptr) {
    std::fprintf(stderr, "unknown scenario '%s' (see: erasmus_run list)\n",
                 name.c_str());
    return 2;
  }

  // Peel the CLI's own arguments off before ParamMap parsing: the output
  // paths and the trace filter are not scenario parameters.
  std::string out_path;
  std::string trace_path;
  std::string trace_filter;
  std::vector<std::string> param_args;
  param_args.reserve(args.size());
  for (const std::string& arg : args) {
    if (arg.rfind("out=", 0) == 0) {
      out_path = arg.substr(4);
    } else if (arg.rfind("--trace=", 0) == 0) {
      trace_path = arg.substr(8);
    } else if (arg.rfind("--trace-filter=", 0) == 0) {
      trace_filter = arg.substr(15);
    } else {
      param_args.push_back(arg);
    }
  }
  if (trace_path.empty() && !trace_filter.empty()) {
    std::fprintf(stderr, "--trace-filter requires --trace=<path>\n");
    return 2;
  }

  ParamMap params;
  try {
    params = ParamMap::from_args(param_args, s->param_specs());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n(see: erasmus_run describe %s)\n", e.what(),
                 name.c_str());
    return 2;
  }

  std::ofstream file;
  std::unique_ptr<MetricsSink> sink;
  if (!out_path.empty()) {
    file.open(out_path, std::ios::binary);  // binary: byte-stable output
    if (!file) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   out_path.c_str());
      return 2;
    }
    if (out_path.size() >= 5 &&
        out_path.compare(out_path.size() - 5, 5, ".json") == 0) {
      sink = std::make_unique<JsonSink>(file);
    } else {
      sink = std::make_unique<CsvSink>(file);
    }
  } else {
    sink = std::make_unique<CsvSink>(std::cout);
  }

  // Install the process-global flight recorder; the sharded runner (and
  // anything else obs-aware) picks it up without a signature change.
  std::unique_ptr<erasmus::obs::TraceRecorder> recorder;
  if (!trace_path.empty()) {
    erasmus::obs::TraceConfig tc;
    if (!trace_filter.empty()) {
      try {
        tc.subsystems = erasmus::obs::parse_subsystem_filter(trace_filter);
      } catch (const std::exception& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 2;
      }
    }
    recorder = std::make_unique<erasmus::obs::TraceRecorder>(tc);
    erasmus::obs::set_global_trace(recorder.get());
  }

  sink->begin_run(s->name());
  int code = 0;
  try {
    code = s->run(params, *sink);
  } catch (const std::exception& e) {
    erasmus::obs::set_global_trace(nullptr);
    std::fprintf(stderr, "scenario '%s' failed: %s\n", name.c_str(),
                 e.what());
    return 1;
  }
  sink->end_run();
  if (recorder) {
    erasmus::obs::set_global_trace(nullptr);
    std::ofstream trace_file(trace_path, std::ios::binary);
    if (!trace_file) {
      std::fprintf(stderr, "cannot open '%s' for writing\n",
                   trace_path.c_str());
      return 2;
    }
    if (trace_path.size() >= 6 &&
        trace_path.compare(trace_path.size() - 6, 6, ".jsonl") == 0) {
      recorder->write_jsonl(trace_file);
    } else {
      recorder->write_chrome_trace(trace_file);
    }
    trace_file.flush();
    if (!trace_file) {
      std::fprintf(stderr, "failed writing trace to '%s'\n",
                   trace_path.c_str());
      return 2;
    }
    std::fprintf(stderr, "wrote trace %s (%zu events, %llu dropped)\n",
                 trace_path.c_str(), recorder->size(),
                 static_cast<unsigned long long>(recorder->dropped()));
  }
  if (!out_path.empty()) {
    std::fprintf(stderr, "wrote %s\n", out_path.c_str());
  }
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    std::printf(
        "usage:\n"
        "  erasmus_run list [--names]\n"
        "  erasmus_run describe <scenario>\n"
        "  erasmus_run run <scenario> [key=value ...] [out=metrics.json]\n"
        "              [--trace=trace.json] [--trace-filter=service,window]\n");
    return args.empty() ? 2 : 0;
  }
  if (args[0] == "list" &&
      (args.size() == 1 || (args.size() == 2 && args[1] == "--names"))) {
    return cmd_list(args.size() == 2);
  }
  if (args[0] == "describe" && args.size() == 2) return cmd_describe(args[1]);
  if (args[0] == "run" && args.size() >= 2) {
    return cmd_run(args[1], {args.begin() + 2, args.end()});
  }
  std::fprintf(stderr, "unknown command; try: erasmus_run help\n");
  return 2;
}
