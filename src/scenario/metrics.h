// Metrics sinks: structured scenario output replacing ad-hoc printf.
//
// A scenario reports two kinds of data: scalar `note`s (configuration echoes
// and end-of-run summaries) and tabular `row`s grouped into named tables
// (one row per round, per device class, per defender configuration...).
// Sinks serialize them as CSV (streamed) or JSON (accumulated, written on
// end_run). Output is byte-deterministic: doubles print via shortest
// round-trip formatting, and ordering follows first-use order -- so two runs
// producing the same values produce identical bytes, which the sharded
// runner's determinism tests and the erasmus_run acceptance check rely on.
#pragma once

#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/strings.h"

namespace erasmus::scenario {

using erasmus::format_double;
using erasmus::json_escape;
using erasmus::Value;

using Row = std::vector<std::pair<std::string, Value>>;

class MetricsSink {
 public:
  virtual ~MetricsSink() = default;

  virtual void begin_run(std::string_view scenario) = 0;
  /// Scalar summary datum.
  virtual void note(std::string_view key, Value value) = 0;
  /// Appends a row to `table`. All rows of one table should share the same
  /// columns in the same order.
  virtual void row(std::string_view table, const Row& r) = 0;
  /// Finalizes output (JSON writes everything here).
  virtual void end_run() = 0;
};

/// Streams CSV: `# scenario=...` header, `# note key=value` lines as they
/// arrive, and per-table sections with a header row emitted on first use.
/// Rows carry their table name in the first column. Cells containing a
/// comma, quote, or newline are RFC-4180 quoted (inner quotes doubled);
/// all other cells are emitted raw, keeping the common numeric output
/// byte-identical to the historical unquoted form.
class CsvSink : public MetricsSink {
 public:
  explicit CsvSink(std::ostream& out) : out_(out) {}

  void begin_run(std::string_view scenario) override;
  void note(std::string_view key, Value value) override;
  void row(std::string_view table, const Row& r) override;
  void end_run() override;

 private:
  std::ostream& out_;
  std::vector<std::string> tables_seen_;
};

/// Accumulates everything and writes a single stable-format JSON document:
/// {"scenario": ..., "notes": {...}, "tables": {name: [{col: val}...]}}.
/// Each row is rendered to its JSON text as it arrives, so a long run
/// keeps one text buffer per table rather than its rows.
class JsonSink : public MetricsSink {
 public:
  explicit JsonSink(std::ostream& out) : out_(out) {}

  void begin_run(std::string_view scenario) override;
  void note(std::string_view key, Value value) override;
  void row(std::string_view table, const Row& r) override;
  void end_run() override;

 private:
  std::ostream& out_;
  std::string scenario_;
  std::vector<std::pair<std::string, Value>> notes_;
  /// Table name -> its rendered rows, each led by its separator.
  std::vector<std::pair<std::string, std::string>> tables_;
};

/// Swallows everything (for tests and dry runs).
class NullSink : public MetricsSink {
 public:
  void begin_run(std::string_view) override {}
  void note(std::string_view, Value) override {}
  void row(std::string_view, const Row&) override {}
  void end_run() override {}
};

}  // namespace erasmus::scenario
